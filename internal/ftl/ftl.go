// Package ftl implements the flash translation layer of the simulated SSD:
// a page-mapping table, channel-striped data allocation, greedy garbage
// collection, erase-count wear leveling (every new block is the
// least-erased free one), bad-block retirement, and the write accounting
// that the paper's endurance study (§5.4) draws on. Only GC and
// retirement move pages; a read never does.
//
// Beyond a standard FTL, every write goes through Place under a Layout,
// the placement constraint ParaBit's schemes differ by: shared wordlines
// for pre-allocation (§4.1, §4.3.3), aligned LSB pages on one plane for
// location-free ParaBit (§5.5), and ESP-programmed LSB pages inside one
// block for Flash-Cosmos. The allocator's striping walks planes
// channel-first, so consecutive logical pages spread across channels and
// a full-device wave touches every plane — the parallelism §5.1 exploits.
package ftl

import (
	"errors"
	"fmt"
	"slices"

	"parabit/internal/flash"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// Config parameterizes the FTL.
type Config struct {
	// OverprovisionPct is the fraction of physical capacity hidden from
	// the logical space (e.g. 0.07 for 7 %).
	OverprovisionPct float64
	// GCFreeBlockLow triggers garbage collection on a plane when its free
	// block count drops below this value.
	GCFreeBlockLow int
}

// DefaultConfig returns a 7 % overprovisioned FTL that collects garbage
// when a plane has fewer than 2 free blocks.
func DefaultConfig() Config {
	return Config{OverprovisionPct: 0.07, GCFreeBlockLow: 2}
}

// FTL errors.
var (
	// ErrDeviceFull reports that allocation failed even after GC.
	ErrDeviceFull = errors.New("ftl: device full")
	// ErrUnmapped reports a read of a never-written logical page.
	ErrUnmapped = errors.New("ftl: logical page not mapped")
	// ErrLogicalRange reports a logical page beyond the exported capacity.
	ErrLogicalRange = errors.New("ftl: logical page out of range")
)

// Stats tracks write-amplification inputs and the maintenance-event
// counters (GC, fault handling, retirement); sched's PublishMetrics
// writes them into a telemetry sink at export.
type Stats struct {
	HostPagesWritten  int64 // pages written on behalf of the host
	ExtraPagesWritten int64 // pages written for GC relocation or ParaBit reallocation
	GCRuns            int64
	GCPagesMoved      int64
	PaddedPages       int64 // MSB slots skipped to keep paired writes aligned
	ProgramFails      int64 // program-status failures absorbed
	EraseFails        int64 // erase-status failures absorbed
	BlocksRetired     int64 // blocks pulled from circulation as bad
	RetirePagesMoved  int64 // valid pages migrated off retiring blocks
	ResteeredWrites   int64 // writes re-issued on a fresh block after a program failure
}

// WriteAmplification returns (host+extra)/host, or 1 when nothing was
// written.
func (s Stats) WriteAmplification() float64 {
	if s.HostPagesWritten == 0 {
		return 1
	}
	return float64(s.HostPagesWritten+s.ExtraPagesWritten) / float64(s.HostPagesWritten)
}

type planeAlloc struct {
	addr     flash.PlaneAddr
	base     uint64 // PPN of the plane's first page
	active   int    // block being filled, -1 when none
	nextWL   int    // next wordline in the active block
	nextKind flash.PageKind
	free     []int // erased block indexes
	valid    []int // valid page count per block
	full     []int // filled, non-free blocks (GC candidates)
	bad      []int // retired blocks, permanently out of circulation
	// owners is the plane's share of the reverse map, one leaf per
	// block: a leaf's slot i holds LPN+1 of the page stored at slot i,
	// 0 when that page is not valid. A block holds a leaf only while it
	// holds valid pages, so the reverse map grows with live blocks, not
	// with the physical space. nil until the plane's first mapping.
	owners [][]uint32
}

// FTL maps logical page numbers to physical pages on a flash.Array.
//
// The FTL carries no lock of its own: it relies on external
// synchronization. All access runs under the command scheduler's mutex —
// via dispatched commands or sched.Exclusive — which is why none of its
// fields carry guarded-by annotations. Touching an FTL from outside the
// scheduler while commands are in flight races.
type FTL struct {
	cfg   Config
	array *flash.Array
	geo   flash.Geometry
	// perPlane and perBlock are the geometry's pages per plane and per
	// block, kept so address decoding skips PageAt's division chain.
	perPlane, perBlock uint64
	l2p                table[uint32] // LPN -> PPN+1; planeAlloc.owners is the reverse
	mapped             int           // LPNs with an l2p entry
	spare              [][]uint32    // released reverse-map leaves, all zero
	// vers counts mapping changes per LPN: every overwrite, trim, GC
	// migration and bad-block retirement bumps the page's version.
	// Cached derived results (the query planner's controller-DRAM cache)
	// snapshot operand versions and revalidate against them, so any
	// event that could have changed — or moved — an operand invalidates
	// dependents.
	vers      table[uint64]
	versioned int // LPNs with a nonzero version
	planes    []*planeAlloc
	order     []int // striping order: channel varies fastest
	cursor    int   // round-robin position in order
	stats     Stats
	// dirty holds one bit per LPN, 64 to a word, set when the LPN's l2p
	// or vers entry changes and cleared by ClearDirty: the entries a
	// delta WriteState lists.
	dirty table[uint64]
	// encBuf holds the entries WriteState writes out a chunk at a time.
	encBuf [204 * entryLen]byte
	// relocPage is the page GC relocates through: the program copies it,
	// so one page serves every move. Retirement, which a relocation's
	// program fault can start mid-move, reads into pages of its own and
	// never touches it.
	relocPage []byte

	// Trace lanes; nil (free no-ops) until SetTelemetry runs.
	gcTrack, retireTrack *telemetry.Track
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry sink: GC
// runs and block retirements become spans on their own lanes when the
// sink records a trace. The maintenance counts stay in Stats.
func (f *FTL) SetTelemetry(s *telemetry.Sink) {
	tr := s.Trace()
	f.gcTrack = tr.Track("ftl", "gc")
	f.retireTrack = tr.Track("ftl", "retirement")
}

// New builds an FTL over an erased array. It panics on a geometry
// CheckGeometry refuses; device configs refuse such a geometry first.
func New(array *flash.Array, cfg Config) *FTL {
	geo := array.Geometry()
	if err := CheckGeometry(geo); err != nil {
		panic(err)
	}
	f := &FTL{
		cfg:      cfg,
		array:    array,
		geo:      geo,
		perPlane: uint64(geo.PagesPerPlane()),
		perBlock: uint64(geo.PagesPerBlock()),
		planes:   make([]*planeAlloc, geo.Planes()),
	}
	f.l2p = newTable[uint32](uint64(f.LogicalPages()))
	f.vers = newTable[uint64](uint64(f.LogicalPages()))
	f.dirty = newTable[uint64]((uint64(f.LogicalPages()) + 63) / 64)
	for i := range f.planes {
		pa := f.newPlane(i)
		pa.active = -1
		pa.free = make([]int, geo.BlocksPerPlane)
		for b := range pa.free {
			pa.free[b] = b
		}
		f.planes[i] = pa
	}
	// Striping visits channels round-robin before reusing one, so
	// consecutive logical pages transfer over different buses and a
	// device-wide wave engages every channel (§5.1 parallelism).
	perChannel := geo.PlanesPerChannel()
	f.order = make([]int, geo.Planes())
	for i := range f.order {
		ch := i % geo.Channels
		within := i / geo.Channels
		f.order[i] = ch*perChannel + within
	}
	return f
}

// newPlane returns an allocator for plane i with every block on no list
// and no valid pages.
func (f *FTL) newPlane(i int) *planeAlloc {
	return &planeAlloc{
		addr:  f.geo.PlaneAt(i),
		base:  uint64(i) * f.perPlane,
		valid: make([]int, f.geo.BlocksPerPlane),
	}
}

// Array returns the underlying flash array.
func (f *FTL) Array() *flash.Array { return f.array }

// Stats returns a copy of the accumulated counters.
func (f *FTL) Stats() Stats { return f.stats }

// LogicalPages returns the exported logical capacity in pages.
func (f *FTL) LogicalPages() int64 {
	return int64(float64(f.geo.TotalPages()) * (1 - f.cfg.OverprovisionPct))
}

// PageSize returns the page size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

func (f *FTL) checkLPN(lpn uint64) error {
	if int64(lpn) >= f.LogicalPages() {
		return fmt.Errorf("%w: %d >= %d", ErrLogicalRange, lpn, f.LogicalPages())
	}
	return nil
}

// Lookup returns the physical location of a logical page.
func (f *FTL) Lookup(lpn uint64) (flash.PageAddr, bool) {
	v := f.l2p.get(lpn)
	if v == 0 {
		return flash.PageAddr{}, false
	}
	return f.pageAt(uint64(v - 1)), true
}

// SetRefs records, for the page each of lpns maps to, the journal
// reference refs holds for it (flash.Array.SetRef), in order, so a page
// written twice keeps its last.
func (f *FTL) SetRefs(lpns []uint64, refs []flash.PageRef) {
	for i, lpn := range lpns {
		if v := f.l2p.get(lpn); v != 0 {
			f.array.SetRef(uint64(v-1), refs[i])
		}
	}
}

// Mapped reports whether a logical page maps to the physical page at
// addr: whether its bytes can still be read.
func (f *FTL) Mapped(addr flash.PageAddr) bool {
	pa := f.planes[f.geo.PlaneIndex(addr.PlaneAddr)]
	_, ok := pa.owner(addr.Block, f.slot(addr))
	return ok
}

// pageAt is geo.PageAt over the precomputed plane table.
func (f *FTL) pageAt(ppn uint64) flash.PageAddr {
	plane, blk, slot := f.split(ppn)
	cb := uint64(f.geo.CellBits)
	wl := slot / cb
	return flash.PageAddr{
		WordlineAddr: flash.WordlineAddr{PlaneAddr: f.planes[plane].addr, Block: int(blk), WL: int(wl)},
		Kind:         flash.PageKind(slot - wl*cb),
	}
}

// split decodes ppn into its plane index, its block there and its slot
// in the block.
func (f *FTL) split(ppn uint64) (plane, blk, slot uint64) {
	plane = ppn / f.perPlane
	in := ppn - plane*f.perPlane
	blk = in / f.perBlock
	return plane, blk, in - blk*f.perBlock
}

// slot is addr's page index within its block.
func (f *FTL) slot(addr flash.PageAddr) int { return addr.WL*f.geo.CellBits + int(addr.Kind) }

// pageIn is the address of page slot in block blk on pa.
func (f *FTL) pageIn(pa *planeAlloc, blk, slot int) flash.PageAddr {
	return flash.PageAddr{
		WordlineAddr: flash.WordlineAddr{PlaneAddr: pa.addr, Block: blk, WL: slot / f.geo.CellBits},
		Kind:         flash.PageKind(slot % f.geo.CellBits),
	}
}

// owner returns the logical page mapped to slot of block blk, if any.
func (pa *planeAlloc) owner(blk, slot int) (uint64, bool) {
	if pa.owners == nil || pa.owners[blk] == nil {
		return 0, false
	}
	v := pa.owners[blk][slot]
	return uint64(v) - 1, v != 0
}

// Read returns the content of a logical page and the completion time.
func (f *FTL) Read(lpn uint64, at sim.Time) ([]byte, sim.Time, error) {
	if err := f.checkLPN(lpn); err != nil {
		return nil, 0, err
	}
	addr, ok := f.Lookup(lpn)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnmapped, lpn)
	}
	return f.array.Read(addr, at)
}

// relocate moves the valid pages of block blk on pa to other blocks, in
// slot order, each keeping its journal reference (flash.Array.CarryRef),
// and returns when the latest program completes and how many pages
// moved. The moves pipeline across planes: each read is issued when the
// previous read's transfer ends, and each copy is programmed on its
// relocationTarget plane as soon as its own read lands, so the copies of
// one victim program on several planes at once. Each page is read into
// buf, which the program copies before the next read reuses it. A nil
// buf reads each into a fresh page, which retirement needs: a relocation
// whose program faults retires that block mid-move, and the retirement
// must not overwrite the page the relocation still carries. op names the
// caller in errors.
func (f *FTL) relocate(pa *planeAlloc, blk int, at sim.Time, buf []byte, op string) (sim.Time, int64, error) {
	issue, end, moved := at, at, int64(0)
	for slot := 0; slot < int(f.perBlock) && pa.valid[blk] > 0; slot++ {
		lpn, ok := pa.owner(blk, slot)
		if !ok {
			continue
		}
		data := buf
		if data == nil {
			data = make([]byte, f.geo.PageSize)
		}
		readDone, err := f.array.ReadInto(data, f.pageIn(pa, blk, slot), issue)
		if err != nil {
			return end, moved, fmt.Errorf("ftl: %s read: %w", op, err)
		}
		target := f.relocationTarget(pa)
		if target == nil {
			return end, moved, ErrDeviceFull
		}
		done, err := f.writeTo(target, lpn, data, readDone, false)
		if err != nil {
			return end, moved, fmt.Errorf("ftl: %s write: %w", op, err)
		}
		// The copy holds the same bytes, so it keeps the page's
		// reference into the journal.
		f.array.CarryRef(pa.base+uint64(blk)*f.perBlock+uint64(slot), uint64(f.l2p.get(lpn)-1))
		issue, end = readDone, sim.Max(end, done)
		moved++
	}
	return end, moved, nil
}

// without returns list with its entry b, if any, removed.
func without(list []int, b int) []int {
	if i := slices.Index(list, b); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// invalidate drops the mapping for lpn, if any, releasing the old page.
func (f *FTL) invalidate(lpn uint64) {
	v := f.l2p.get(lpn)
	if v == 0 {
		return
	}
	f.bumpVersion(lpn)
	f.l2p.set(lpn, 0)
	f.mapped--
	plane, blk, slot := f.split(uint64(v - 1))
	pa := f.planes[plane]
	pa.owners[blk][slot] = 0
	if pa.valid[blk]--; pa.valid[blk] == 0 {
		f.releaseLeaf(pa, int(blk))
	}
}

// mapPage maps the unmapped lpn to addr, a page on pa.
func (f *FTL) mapPage(pa *planeAlloc, lpn uint64, addr flash.PageAddr) {
	f.bumpVersion(lpn)
	slot := f.slot(addr)
	f.l2p.set(lpn, uint32(pa.base+uint64(addr.Block)*f.perBlock+uint64(slot)+1))
	f.leaf(pa, addr.Block)[slot] = uint32(lpn + 1)
	f.mapped++
	pa.valid[addr.Block]++
}

func (f *FTL) bumpVersion(lpn uint64) {
	v := f.vers.get(lpn)
	if v == 0 {
		f.versioned++
	}
	f.vers.set(lpn, v+1)
	*f.dirty.at(lpn / 64) |= 1 << (lpn % 64)
}

// Version returns the mapping version of a logical page: 0 until the page
// is first mapped, then incremented on every overwrite, trim or internal
// migration (GC, bad-block retirement). Reads never move a page. Consumers
// caching results derived from the page compare versions to detect both
// data changes and physical moves.
func (f *FTL) Version(lpn uint64) uint64 { return f.vers.get(lpn) }

// Trim invalidates a logical page without writing.
func (f *FTL) Trim(lpn uint64) { f.invalidate(lpn) }

// nextPlane advances the striping cursor.
func (f *FTL) nextPlane() *planeAlloc {
	pa := f.planes[f.order[f.cursor]]
	f.cursor = (f.cursor + 1) % len(f.order)
	return pa
}

// takeFreeBlock removes and returns the free block with the lowest erase
// count (wear leveling). Returns -1 when no free block exists.
func (f *FTL) takeFreeBlock(pa *planeAlloc) int {
	if len(pa.free) == 0 {
		return -1
	}
	best := 0
	bestErases := f.array.EraseCount(pa.addr, pa.free[0])
	for i, b := range pa.free[1:] {
		if e := f.array.EraseCount(pa.addr, b); e < bestErases {
			best, bestErases = i+1, e
		}
	}
	blk := pa.free[best]
	pa.free = slices.Delete(pa.free, best, best+1)
	return blk
}

// allocSlot reserves the next page slot on a plane, opening a new block
// when the active block fills. With allowGC set, dropping below the free
// headroom runs garbage collection first; relocation writes issued *by* GC
// pass allowGC=false so collection never recurses. at is when the
// allocation is requested. Every GC pass starts at at, so passes overlap
// wherever their planes are free; the plane calendars and the array's
// per-block program and sense stamps order what they share. The returned
// time is the latest pass's end when GC ran, at otherwise. aligned
// reports that the caller padded or sealed the plane for a group that
// must start on a fresh wordline.
func (f *FTL) allocSlot(pa *planeAlloc, at sim.Time, allowGC, aligned bool) (flash.PageAddr, sim.Time, error) {
	ready := at
	if pa.active < 0 {
		if allowGC {
			var gcErr error
			for len(pa.free) <= f.cfg.GCFreeBlockLow && len(pa.full) > 0 {
				before := len(pa.free)
				var end sim.Time
				end, gcErr = f.collectPlane(pa, at)
				ready = sim.Max(ready, end)
				// Stop when collection fails or frees nothing net (every
				// remaining victim is fully valid): further passes would
				// only shuffle pages forever.
				if gcErr != nil || len(pa.free) <= before {
					break
				}
			}
			// With no room on any other plane, GC relocates onto the
			// plane it collects and opens a block here. The allocation
			// continues in it, unless the caller aligned for a fresh
			// wordline: then the block is sealed onto the full list,
			// where GC reclaims it.
			if aligned {
				f.sealActive(pa)
			}
			// Keep one free block in reserve so GC relocation always has
			// somewhere to write; without it the plane can wedge with
			// garbage present but unreachable. An injected fault that
			// stopped GC must not be flattened into "device full" — a
			// transient plane outage is retryable, a dead plane is not,
			// and neither means the capacity is gone. A block GC opened
			// here needs no reserve: the allocation continues in it.
			if pa.active < 0 && len(pa.free) < 2 && len(pa.full) > 0 {
				if gcErr != nil && flash.AsFaultError(gcErr) != nil {
					return flash.PageAddr{}, 0, gcErr
				}
				return flash.PageAddr{}, 0, ErrDeviceFull
			}
		}
		if pa.active < 0 {
			blk := f.takeFreeBlock(pa)
			if blk < 0 {
				return flash.PageAddr{}, 0, ErrDeviceFull
			}
			pa.active = blk
			pa.nextWL = 0
			pa.nextKind = flash.LSBPage
		}
	}
	addr := flash.PageAddr{
		WordlineAddr: flash.WordlineAddr{PlaneAddr: pa.addr, Block: pa.active, WL: pa.nextWL},
		Kind:         pa.nextKind,
	}
	pa.nextKind++
	if int(pa.nextKind) == f.geo.CellBits {
		pa.nextKind = flash.LSBPage
		pa.nextWL++
		if pa.nextWL == f.geo.WordlinesPerBlock {
			pa.full = append(pa.full, pa.active)
			pa.active = -1
		}
	}
	return addr, ready, nil
}

// padToFreshWordline discards remaining page slots of a partially
// allocated wordline so the next allocation starts at a fresh one's LSB.
func (f *FTL) padToFreshWordline(pa *planeAlloc, at sim.Time) error {
	for pa.active >= 0 && pa.nextKind != flash.LSBPage {
		if _, _, err := f.allocSlot(pa, at, false, false); err != nil {
			return err
		}
		f.stats.PaddedPages++
	}
	return nil
}

// undoAlloc rolls the allocator cursor back onto addr after its program
// failed. The fault check fires before any cell mutates, so the physical
// page is still erased and programmable; without the rollback the
// allocator would leak the slot and later hand out the wordline's MSB
// with its LSB unprogrammed — an ordering violation the array rejects.
// Only the slot whose program failed may be undone: earlier siblings of a
// multi-page attempt are physically programmed and must stay consumed.
func (f *FTL) undoAlloc(pa *planeAlloc, addr flash.PageAddr) {
	if pa.active != addr.Block {
		// The failed slot sealed the block; un-seal it.
		pa.full = without(pa.full, addr.Block)
		pa.active = addr.Block
	}
	pa.nextWL = addr.WL
	pa.nextKind = addr.Kind
}

// retireBlock pulls blk out of circulation on pa: any valid pages it
// still holds migrate to healthy blocks (so no acknowledged data is
// lost), then the block joins the bad list for good. The block is first
// removed from whichever allocator list holds it; if the migration fails
// the block is sealed back into the full list so every page stays
// reachable and GC can retry later. Idempotent for already-bad blocks.
func (f *FTL) retireBlock(pa *planeAlloc, blk int, at sim.Time) (sim.Time, error) {
	if slices.Contains(pa.bad, blk) {
		return at, nil
	}
	if pa.active == blk {
		pa.active = -1
	}
	pa.free = without(pa.free, blk)
	pa.full = without(pa.full, blk)
	now, moved, err := f.relocate(pa, blk, at, nil, "retire")
	f.stats.ExtraPagesWritten += moved
	f.stats.RetirePagesMoved += moved
	if err != nil {
		pa.full = append(pa.full, blk)
		return now, err
	}
	pa.bad = append(pa.bad, blk)
	f.stats.BlocksRetired++
	f.retireTrack.Span("retire", at, now)
	return now, nil
}

// withResteer runs one write attempt and, when it fails with an injected
// program fault, retires the failed block and re-issues the attempt on a
// fresh one — the datasheet contract for program-status failures. fn must
// be restartable: it may only map pages after every program it issues has
// succeeded, so a retried attempt never observes half-applied state. The
// attempt count is bounded by the plane's block count; every retry
// permanently removes one block, so the loop cannot spin.
func (f *FTL) withResteer(pa *planeAlloc, at sim.Time, fn func(at sim.Time) (sim.Time, error)) (sim.Time, error) {
	for attempt := 0; ; attempt++ {
		done, err := fn(at)
		if err == nil || !flash.IsProgramFault(err) || attempt >= f.geo.BlocksPerPlane {
			return done, err
		}
		fe := flash.AsFaultError(err)
		f.stats.ProgramFails++
		now, rerr := f.retireBlock(pa, fe.Block, at)
		if rerr != nil {
			return 0, fmt.Errorf("ftl: retire block %d after program fault: %w", fe.Block, rerr)
		}
		f.stats.ResteeredWrites++
		at = now
	}
}

// writeTo programs data at a fresh slot on pa and maps it to lpn. The old
// copy is invalidated only after the program succeeds, so a failed or
// faulted write never loses the previously acknowledged version.
func (f *FTL) writeTo(pa *planeAlloc, lpn uint64, data []byte, at sim.Time, allowGC bool) (sim.Time, error) {
	return f.withResteer(pa, at, func(at sim.Time) (sim.Time, error) {
		return f.program(pa, Layout{}, []uint64{lpn}, [][]byte{data}, at, allowGC)
	})
}

// writeStriped programs one page at the round-robin cursor's plane,
// retrying the remaining planes when the first choice is wedged (no free
// or active block even after GC) or faulted (a dead or transiently
// unresponsive plane, or a failed retirement). A single broken plane must
// not fail the whole device while its siblings still have room; only when
// every plane rejects the write does the error surface — and if any
// rejection was transient, that error is preferred so the layer above
// knows a later retry can still succeed.
func (f *FTL) writeStriped(lpn uint64, data []byte, at sim.Time) (sim.Time, error) {
	var firstErr, transientErr error
	for i, n := 0, len(f.order); i < n; i++ {
		idx := f.cursor
		pa := f.planes[f.order[idx]]
		f.cursor = (idx + 1) % n
		done, err := f.writeTo(pa, lpn, data, at, true)
		if err == nil {
			return done, nil
		}
		// Wedged or faulted planes fall through to the next candidate;
		// anything else (a programming bug, a bad LPN) surfaces at once. A
		// power cut is device-wide, not per-plane: trying siblings would
		// only burn injection counters on a dead device.
		if flash.IsPowerCut(err) {
			return 0, err
		}
		if !errors.Is(err, ErrDeviceFull) && flash.AsFaultError(err) == nil {
			return 0, err
		}
		if transientErr == nil && flash.IsTransientFault(err) {
			transientErr = err
		}
		if firstErr == nil {
			firstErr = err
		}
		// GC relocation inside the failed attempt shares the round-robin
		// cursor and may have wrapped it back onto the plane just tried;
		// park it one past that plane so the retry visits each remaining
		// plane exactly once instead of hammering the wedged one.
		f.cursor = (idx + 1) % n
	}
	if transientErr != nil {
		return 0, transientErr
	}
	return 0, firstErr
}

// Shape is how a layout uses the page slots of a wordline.
type Shape uint8

// Wordline shapes.
const (
	// Dense fills slots in program order, wherever the allocator stands.
	Dense Shape = iota
	// Shared puts the whole group — at most CellBits pages — into one
	// fresh wordline: the co-located layout basic ParaBit senses (§4.3),
	// and the TLC triple of the §4.4.1 extension.
	Shared
	// LSBOnly puts each page into the LSB slot of a fresh wordline and
	// pads its siblings, halving density like SLC-mode use: the aligned
	// layout location-free ParaBit senses (§5.5).
	LSBOnly
)

// Layout is a placement constraint on a group of logical pages. The zero
// value is a dense host write striped across planes.
type Layout struct {
	Shape Shape
	// OneBlock keeps the whole group in consecutive wordlines of one
	// block, ESP-programmed: the intra-block colocation a Flash-Cosmos
	// multi-wordline sense requires. A group larger than a block's
	// wordline count is refused, and callers fall back to pairwise
	// placement.
	OneBlock bool
	// Fixed pins the group to the plane with linear index Plane.
	// Otherwise it takes the next plane in stripe order, and dense pages
	// outside a one-block group fall back across planes when that one is
	// wedged.
	Fixed bool
	Plane int
	// Extra charges the pages to ExtraPagesWritten (device-initiated
	// relocation) instead of HostPagesWritten.
	Extra bool
}

// Place writes a group of logical pages under one layout and returns
// when the last program completes. Shared and one-block groups commit in
// one attempt: a program fault re-places the whole group on a fresh
// block, so a partial group is never mapped. Dense and LSB-only groups
// commit, and are charged, page by page.
func (f *FTL) Place(l Layout, lpns []uint64, data [][]byte, at sim.Time) (sim.Time, error) {
	n := len(lpns)
	switch {
	case n == 0 || n != len(data):
		return 0, fmt.Errorf("ftl: group of %d lpns with %d pages", n, len(data))
	case l.Shape == Shared && n > f.geo.CellBits:
		return 0, fmt.Errorf("ftl: %d pages exceed the %d slots of a wordline", n, f.geo.CellBits)
	case l.OneBlock && n > f.geo.WordlinesPerBlock:
		return 0, fmt.Errorf("ftl: group of %d pages exceeds the %d wordlines of a block", n, f.geo.WordlinesPerBlock)
	case l.Fixed && (l.Plane < 0 || l.Plane >= len(f.planes)):
		return 0, fmt.Errorf("%w: plane %d", flash.ErrBadAddress, l.Plane)
	}
	for _, lpn := range lpns {
		if err := f.checkLPN(lpn); err != nil {
			return 0, err
		}
	}
	var pa *planeAlloc // nil: stripe each page, falling back across planes
	switch {
	case l.Fixed:
		pa = f.planes[l.Plane]
	case l.Shape != Dense || l.OneBlock:
		pa = f.nextPlane()
	}
	step := 1
	if l.Shape == Shared || l.OneBlock {
		step = n
	}
	now := at
	for i := 0; i < n; i += step {
		g, gd := lpns[i:i+step], data[i:i+step]
		var err error
		if pa == nil {
			now, err = f.writeStriped(g[0], gd[0], now)
		} else {
			now, err = f.withResteer(pa, now, func(at sim.Time) (sim.Time, error) {
				return f.program(pa, l, g, gd, at, true)
			})
		}
		if err != nil {
			return 0, err
		}
		if l.Extra {
			f.stats.ExtraPagesWritten += int64(step)
		} else {
			f.stats.HostPagesWritten += int64(step)
		}
	}
	return now, nil
}

// program is one placement attempt on pa: it allocates and programs
// every page of the group under l and maps them only after all programs
// succeeded, so withResteer can restart it on a fresh block. Relocation
// writes issued by GC pass allowGC=false so collection never recurses.
func (f *FTL) program(pa *planeAlloc, l Layout, lpns []uint64, data [][]byte, at sim.Time, allowGC bool) (sim.Time, error) {
	if l.Shape != Dense {
		if err := f.padToFreshWordline(pa, at); err != nil {
			return 0, err
		}
	}
	if l.OneBlock && pa.active >= 0 && f.geo.WordlinesPerBlock-pa.nextWL < len(lpns) {
		f.sealActive(pa)
	}
	var buf [4]flash.PageAddr
	addrs := buf[:0]
	now := at
	for i := range lpns {
		// A one-block group may collect garbage only before its first
		// program: once it has a block, allocation stays inside it.
		addr, ready, err := f.allocSlot(pa, now, allowGC && (i == 0 || !l.OneBlock), l.Shape != Dense || l.OneBlock)
		if err != nil {
			return 0, err
		}
		if i > 0 && (addr.Block != addrs[0].Block || l.Shape == Shared && addr.WL != addrs[0].WL) {
			// The pads and the seal above rule this out by construction;
			// anything else is an allocator bug.
			panic(fmt.Sprintf("ftl: %+v group split: %v vs %v", l, addrs[0], addr))
		}
		var end sim.Time
		if l.OneBlock {
			end, err = f.array.ProgramESP(addr, data[i], ready)
		} else {
			end, err = f.array.Program(addr, data[i], ready)
		}
		if err != nil {
			f.undoAlloc(pa, addr)
			return 0, fmt.Errorf("ftl: program %v: %w", addr, err)
		}
		addrs = append(addrs, addr)
		now = end
		if l.Shape == LSBOnly {
			// Nothing else may land beside the operand.
			if err := f.padToFreshWordline(pa, now); err != nil {
				return 0, err
			}
		}
	}
	for i, lpn := range lpns {
		f.invalidate(lpn)
		f.mapPage(pa, lpn, addrs[i])
	}
	return now, nil
}

// Write stores one logical page, striping across planes.
func (f *FTL) Write(lpn uint64, data []byte, at sim.Time) (sim.Time, error) {
	return f.Place(Layout{}, []uint64{lpn}, [][]byte{data}, at)
}

// WriteLSBGroup stores k logical pages into LSB pages of one plane — the
// aligned layout a location-free chained reduction senses in a single
// operation. Returns one wordline per page, all on the same plane.
func (f *FTL) WriteLSBGroup(lpns []uint64, data [][]byte, at sim.Time) ([]flash.WordlineAddr, sim.Time, error) {
	done, err := f.Place(Layout{Shape: LSBOnly}, lpns, data, at)
	if err != nil {
		return nil, 0, err
	}
	wls := make([]flash.WordlineAddr, len(lpns))
	for i, lpn := range lpns {
		addr, _ := f.Lookup(lpn)
		wls[i] = addr.WordlineAddr
	}
	return wls, done, nil
}

// sealActive closes a partially filled active block so the next
// allocation opens a fresh one. The skipped wordlines are counted as
// padding and become reclaimable dead space once GC picks the block up.
// One-block layouts use it when the active block lacks room
// for a whole operand group: colocation buys single-sense reductions at
// the price of some allocator slack.
func (f *FTL) sealActive(pa *planeAlloc) {
	if pa.active < 0 {
		return
	}
	skipped := int64(f.geo.WordlinesPerBlock-pa.nextWL) * int64(f.geo.CellBits)
	if pa.nextKind != flash.LSBPage {
		skipped -= int64(pa.nextKind)
	}
	f.stats.PaddedPages += skipped
	pa.full = append(pa.full, pa.active)
	pa.active = -1
}

// collectPlane garbage-collects one plane: pick the full block with the
// fewest valid pages, relocate them, erase. The erase is issued at the
// latest copy's program end, so the victim is wiped only once every page
// it held lives elsewhere. Returns when the plane is usable again.
func (f *FTL) collectPlane(pa *planeAlloc, at sim.Time) (sim.Time, error) {
	if len(pa.full) == 0 {
		if len(pa.free) == 0 {
			return at, ErrDeviceFull
		}
		return at, nil
	}
	// Victim: fewest valid pages among full blocks.
	vi := 0
	for i, b := range pa.full[1:] {
		if pa.valid[b] < pa.valid[pa.full[vi]] {
			vi = i + 1
		}
	}
	victim := pa.full[vi]
	pa.full = slices.Delete(pa.full, vi, vi+1)
	f.stats.GCRuns++
	if f.relocPage == nil {
		f.relocPage = make([]byte, f.geo.PageSize)
	}
	now, moved, err := f.relocate(pa, victim, at, f.relocPage, "gc")
	f.stats.ExtraPagesWritten += moved
	f.stats.GCPagesMoved += moved
	if err != nil {
		// The victim keeps whatever relocate did not move: back into
		// the full list, so the next pass retries it.
		pa.full = append(pa.full, victim)
		return now, err
	}
	// An erase fault retires the drained victim: its pages already live
	// elsewhere, so the plane loses a block, not its data. Any other
	// failure seals it back into the full list so the next pass retries.
	end, err := f.array.Erase(pa.addr, victim, now)
	switch {
	case err == nil:
		pa.free = append(pa.free, victim)
	case flash.IsEraseFault(err):
		f.stats.EraseFails++
		if end, err = f.retireBlock(pa, victim, now); err != nil {
			return end, fmt.Errorf("ftl: gc retire: %w", err)
		}
	default:
		pa.full = append(pa.full, victim)
		return now, fmt.Errorf("ftl: gc erase: %w", err)
	}
	f.gcTrack.Span("gc", at, end)
	return end, nil
}

// relocationTarget picks a plane for a GC-relocated page: preferably not
// the plane under collection, and one with room left — an open active
// block or a spare free block. Returns nil when the device is truly full.
func (f *FTL) relocationTarget(victim *planeAlloc) *planeAlloc {
	var fallback *planeAlloc
	for range f.planes {
		pa := f.planes[f.order[f.cursor]]
		f.cursor = (f.cursor + 1) % len(f.order)
		if pa.active < 0 && len(pa.free) == 0 {
			continue
		}
		if pa == victim {
			fallback = pa
			continue
		}
		return pa
	}
	return fallback
}

// FreeBlocks reports the total free (erased, unallocated) blocks.
func (f *FTL) FreeBlocks() int {
	n := 0
	for _, pa := range f.planes {
		n += len(pa.free)
	}
	return n
}

// MappedPages reports how many logical pages currently hold data.
func (f *FTL) MappedPages() int { return f.mapped }

// BadBlocks reports the total blocks retired from circulation.
func (f *FTL) BadBlocks() int {
	n := 0
	for _, pa := range f.planes {
		n += len(pa.bad)
	}
	return n
}

// CheckInvariants verifies the FTL's internal bookkeeping and returns the
// first violation found, or nil. The invariants it asserts are the ones
// every allocation path (striped writes, paired writes, GC, bad-block
// retirement) must preserve:
//
//   - l2p and the reverse map (p2l, the planes' owner leaves) are
//     inverses of each other, a block keeps a leaf only while it holds
//     valid pages, and the mapped and versioned counters match the
//     tables;
//   - on every plane, each block appears in exactly one of the free list,
//     the active slot, the full list, or the retired bad list (and never
//     twice);
//   - a block's valid-page counter equals the number of p2l entries that
//     point into it, and free and retired blocks hold no valid pages.
//
// Tests — in particular the concurrent scheduler stress tests — call it
// after hammering a device to prove the shared state stayed coherent.
func (f *FTL) CheckInvariants() error {
	// Entries hold page numbers off by one; a zero reads as unmapped.
	var err error
	mapped, versioned := 0, 0
	f.l2p.each(func(lpn uint64, v uint32) {
		mapped++
		plane, blk, slot := f.split(uint64(v - 1))
		if back, ok := f.planes[plane].owner(int(blk), int(slot)); err == nil && (!ok || back != lpn) {
			err = fmt.Errorf("ftl: l2p[%d]=%d but the reverse map disagrees", lpn, v-1)
		}
	})
	f.vers.each(func(uint64, uint64) { versioned++ })
	switch {
	case err != nil:
		return err
	case mapped != f.mapped:
		return fmt.Errorf("ftl: %d mapped pages counted as %d", mapped, f.mapped)
	case versioned != f.versioned:
		return fmt.Errorf("ftl: %d versioned pages counted as %d", versioned, f.versioned)
	}
	for i, pa := range f.planes {
		where := make(map[int]string, f.geo.BlocksPerPlane)
		note := func(b int, list string) error {
			if prev, dup := where[b]; dup {
				return fmt.Errorf("ftl: plane %d block %d in both %s and %s", i, b, prev, list)
			}
			where[b] = list
			return nil
		}
		for _, b := range pa.free {
			if err := note(b, "free"); err != nil {
				return err
			}
		}
		if pa.active >= 0 {
			if err := note(pa.active, "active"); err != nil {
				return err
			}
		}
		for _, b := range pa.full {
			if err := note(b, "full"); err != nil {
				return err
			}
		}
		for _, b := range pa.bad {
			if err := note(b, "bad"); err != nil {
				return err
			}
		}
		for b := 0; b < f.geo.BlocksPerPlane; b++ {
			if _, ok := where[b]; !ok {
				return fmt.Errorf("ftl: plane %d block %d on no list", i, b)
			}
			// The valid count must match the block's reverse-map entries,
			// each of which must point back through l2p.
			var leaf []uint32
			if pa.owners != nil {
				leaf = pa.owners[b]
			}
			live := 0
			for slot, v := range leaf {
				if v == 0 {
					continue
				}
				live++
				ppn := pa.base + uint64(b)*f.perBlock + uint64(slot)
				if fwd := f.l2p.get(uint64(v - 1)); fwd != uint32(ppn+1) {
					return fmt.Errorf("ftl: p2l[%d]=%d but l2p[%d]=%d", ppn, v-1, v-1, int64(fwd)-1)
				}
			}
			if leaf != nil && live == 0 {
				return fmt.Errorf("ftl: plane %d block %d keeps an empty reverse-map leaf", i, b)
			}
			if pa.valid[b] != live {
				return fmt.Errorf("ftl: plane %d block %d valid=%d but %d mapped pages",
					i, b, pa.valid[b], live)
			}
			if (where[b] == "free" || where[b] == "bad") && pa.valid[b] != 0 {
				return fmt.Errorf("ftl: plane %d %s block %d holds %d valid pages", i, where[b], b, pa.valid[b])
			}
		}
	}
	return nil
}
