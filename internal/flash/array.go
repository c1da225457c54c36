package flash

import (
	"errors"
	"fmt"

	"parabit/internal/ecc"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Program-order violations and related storage errors.
var (
	// ErrNotErased reports a program to a page that already holds data.
	ErrNotErased = errors.New("flash: program to non-erased page")
	// ErrProgramOrder reports an MSB program before the wordline's LSB
	// program, which MLC flash forbids.
	ErrProgramOrder = errors.New("flash: MSB programmed before LSB")
	// ErrPageSize reports a program whose buffer is not exactly one page.
	ErrPageSize = errors.New("flash: data is not one page")
	// ErrPlaneMismatch reports a location-free op whose operands do not
	// share a plane (and therefore do not share latching circuits).
	ErrPlaneMismatch = errors.New("flash: location-free operands on different planes")
)

// Corruptor injects read errors into sensed data. The reliability package
// provides the paper-calibrated implementation; a nil Corruptor is ideal.
type Corruptor interface {
	// Corrupt flips bits in data in place and returns the number flipped.
	// peCycles is the block's erase count; sros is the number of sensing
	// steps the producing operation used (errors grow with both, paper
	// Fig. 17).
	Corrupt(data []byte, peCycles, sros int) int
}

// DisturbCorruptor is an optional Corruptor extension that also accounts
// for read disturb: the error rate grows with the SROs a block has
// absorbed since its last erase. Arrays feed the per-block read counter
// to models implementing it.
type DisturbCorruptor interface {
	Corruptor
	CorruptWithReads(data []byte, peCycles, sros, blockReads int) int
}

// wordline stores the CellBits pages of one row, indexed by PageKind;
// Geometry.Validate admits at most three. nil pages mean erased: every
// cell in state E, so every page reads back all ones. A stored page is
// never written after program — senses read it in place — until an erase
// returns it to the array's free list. The parity slices model the
// out-of-band spare area where the controller keeps ECC parity; the slice
// and its entries exist only when the array has a codec installed.
type wordline struct {
	pages  [3][]byte
	parity [][]byte
	// esp marks pages written with enhanced SLC programming (Flash-Cosmos):
	// slower programs with tighter threshold distributions, which is what
	// gives a multi-wordline sense its margin.
	esp [3]bool
}

type block struct {
	// wl is nil until the block's first program; an erase clears its
	// wordlines but keeps the slice for the next program cycle.
	wl     []wordline
	erases int
	// reads counts SROs issued against the block since its last erase:
	// the read-disturb exposure the reliability model can consume.
	reads int
	// used counts the pages programmed since the last erase.
	used int
	// changed marks a block programmed or erased since the last
	// ClearChanged: a delta state encoding must carry its contents.
	changed bool
	// programmed and sensed are when the block's booked programs (or its
	// erase) and its booked senses end. Resources order work by virtual
	// time, not call order, so these keep data dependences in order: a
	// sense starts after the programs it reads, a program after the
	// block's earlier programs and erase, and an erase after the senses
	// and programs of the data it wipes. They are timing state, cleared
	// by ResetTiming and never encoded.
	programmed, sensed sim.Time
}

type plane struct {
	sense  *sim.Resource
	blocks []block
}

// Array is the NAND flash device: storage plus occupancy-based timing.
// Methods take an "at" time (when the controller issues the command) and
// return the command's completion time. Queueing on busy planes and
// channels is resolved by the embedded resources in virtual-time order:
// an operation issued at an earlier instant fills an idle gap before work
// already booked for a later one, so call order does not decide who
// waits. A block's data dependences still hold: a sense waits for the
// programs of its block, an erase for the block's senses and programs.
// Array is not safe for concurrent use — the controller above it is
// single-threaded over simulated time.
type Array struct {
	geo    Geometry
	timing Timing
	planes []*plane        // by PlaneIndex
	buses  []*sim.Resource // per channel
	noise  Corruptor
	// codec, when set, protects baseline reads: programs store parity in
	// the OOB area, and reads of parity-bearing pages see the
	// Corruptor's raw bit errors, which the codec then corrects — the
	// §5.8 configuration. Without a codec, baseline reads are ideal, so
	// raw errors never reach the host. ParaBit sense results never pass
	// through it (§4.4.3).
	codec *ecc.Codec
	// injector, when set, decides per-operation structural faults
	// (program/erase failures, dead planes, latency jitter) the way noise
	// decides bit errors. A nil injector is fault-free.
	injector FaultInjector
	stats    Stats
	// erased is the one all-ones page every read of erased storage sees
	// in place. Like a programmed page, nothing ever writes to it.
	erased []byte
	// views and costs are a sense's reusable operand page and chunk price lists.
	views [][]byte
	costs []latch.Cost
	// free holds page buffers erases released, for programs to reuse
	// before allocating; it keeps at most freeCap of them.
	free    [][]byte
	freeCap int
	// refs, indexed by PPN, names where each programmed page's bytes
	// also lie in a retained journal segment (0: nowhere), so a snapshot
	// can reference the page instead of copying it. nil until TrackRefs:
	// only persistent devices keep it.
	refs []PageRef
}

// freeListBytes bounds the page buffers an array keeps for reuse.
const freeListBytes = 1 << 20

// NewArray builds an erased array. It panics on invalid configuration:
// geometry and timing come from code, not user input.
func NewArray(geo Geometry, timing Timing) *Array {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if err := timing.Validate(); err != nil {
		panic(err)
	}
	a := &Array{
		geo:    geo,
		timing: timing,
		planes: make([]*plane, geo.Planes()),
		buses:  make([]*sim.Resource, geo.Channels),
		erased: make([]byte, geo.PageSize),
		// One block's pages per plane, within freeListBytes.
		freeCap: min(geo.PagesPerBlock()*geo.Planes(), freeListBytes/geo.PageSize),
	}
	for i := range a.erased {
		a.erased[i] = 0xFF
	}
	for i := range a.planes {
		a.planes[i] = &plane{
			sense:  sim.NewResource(fmt.Sprintf("plane-%d", i)),
			blocks: make([]block, geo.BlocksPerPlane),
		}
	}
	for i := range a.buses {
		a.buses[i] = sim.NewResource(fmt.Sprintf("chan-%d", i))
	}
	return a
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the array's timing parameters.
func (a *Array) Timing() Timing { return a.timing }

// Stats returns a copy of the accumulated operation counts.
func (a *Array) Stats() Stats { return a.stats }

// SetCorruptor installs a read-noise model; nil restores ideal sensing.
func (a *Array) SetCorruptor(c Corruptor) { a.noise = c }

// SetECC installs a baseline-read codec. Pages programmed afterwards
// carry parity; reads of parity-bearing pages experience the Corruptor's
// raw errors and correct them.
func (a *Array) SetECC(c *ecc.Codec) { a.codec = c }

// InstrumentResources installs a reservation observer on every plane's
// sense path and every channel bus. mk is called once per resource with
// its diagnostic name ("plane-3", "chan-0") and may return nil to leave
// that resource uninstrumented; a nil mk removes every observer. The
// telemetry layer uses this to give each plane and channel its own
// occupancy lane in an exported trace.
func (a *Array) InstrumentResources(mk func(name string) sim.ReserveObserver) {
	for _, p := range a.planes {
		if mk == nil {
			p.sense.SetObserver(nil)
		} else {
			p.sense.SetObserver(mk(p.sense.Name()))
		}
	}
	for _, b := range a.buses {
		if mk == nil {
			b.SetObserver(nil)
		} else {
			b.SetObserver(mk(b.Name()))
		}
	}
}

// DrainTime returns the instant all queued work on every plane and channel
// completes — the wave-completion time experiments report.
func (a *Array) DrainTime() sim.Time {
	var t sim.Time
	for _, p := range a.planes {
		if ft := p.sense.FreeAt(); ft > t {
			t = ft
		}
	}
	for _, b := range a.buses {
		if ft := b.FreeAt(); ft > t {
			t = ft
		}
	}
	return t
}

// ResetTiming returns every plane and channel to idle without touching
// stored data, so successive experiments on one array start from t=0:
// stored pages count as programmed long ago.
func (a *Array) ResetTiming() {
	for _, p := range a.planes {
		p.sense.Reset()
		for bi := range p.blocks {
			p.blocks[bi].programmed, p.blocks[bi].sensed = 0, 0
		}
	}
	for _, b := range a.buses {
		b.Reset()
	}
}

func (a *Array) planeAt(p PlaneAddr) *plane { return a.planes[a.geo.PlaneIndex(p)] }

func (a *Array) wordlineAt(w WordlineAddr) *wordline {
	blk := &a.planeAt(w.PlaneAddr).blocks[w.Block]
	if blk.wl == nil {
		return nil
	}
	return &blk.wl[w.WL]
}

// pageView returns the stored page content for reading in place: the
// programmed page itself, or the shared erased page for erased storage
// (cells in state E carry 1 in every page). Stored pages are immutable
// once programmed, so callers only read the view and never hand it out.
func (a *Array) pageView(w WordlineAddr, kind PageKind) []byte {
	if wl := a.wordlineAt(w); wl != nil && wl.pages[kind] != nil {
		return wl.pages[kind]
	}
	return a.erased
}

// peCycles returns the erase count of the block holding w.
func (a *Array) peCycles(w WordlineAddr) int {
	return a.planeAt(w.PlaneAddr).blocks[w.Block].erases
}

// ReadCount returns the SROs a block has absorbed since its last erase.
func (a *Array) ReadCount(p PlaneAddr, blockIdx int) int {
	return a.planeAt(p).blocks[blockIdx].reads
}

// book books one plane sense, bitwise or page read; no other code
// reserves a plane to sense. costs[i] prices chunks[i], the operand
// wordlines of one program run, and jitter is the fault injector's. The
// sense waits for every operand block's programs, then holds the first
// operand's plane for its latency plus jitter. Each operand wordline's
// block absorbs the senses its program gives it as read disturb, and
// then its erase waits for the sense. book returns the sense's end and
// the most disturb an operand block had absorbed before it.
func (a *Array) book(at sim.Time, jitter sim.Duration, chunks [][]WordlineAddr, costs []latch.Cost, label string) (end sim.Time, exposure int) {
	start, dur := at, jitter
	for ci, wls := range chunks {
		dur += a.timing.SenseLatency(costs[ci], a.geo.PageSize)
		a.stats.SROs += int64(costs[ci].SROs)
		a.stats.BytesIn += int64(costs[ci].Loads * a.geo.PageSize)
		for _, w := range wls {
			start = sim.Max(start, a.planeAt(w.PlaneAddr).blocks[w.Block].programmed)
		}
	}
	first := chunks[0][0]
	_, end = a.planeAt(first.PlaneAddr).sense.ReserveLabeled(start, dur, label)
	for ci, wls := range chunks {
		for i, w := range wls {
			blk := &a.planeAt(w.PlaneAddr).blocks[w.Block]
			exposure = max(exposure, blk.reads)
			if n := costs[ci].Reads(i); n > 0 {
				blk.reads += n
				blk.sensed = sim.Max(blk.sensed, end)
			}
		}
	}
	return end, exposure
}

// corrupt applies the noise model to sensed data, routing through the
// read-disturb extension when the model supports it.
func (a *Array) corrupt(data []byte, pe, sros, blockReads int) int {
	if a.noise == nil {
		return 0
	}
	if dc, ok := a.noise.(DisturbCorruptor); ok {
		return dc.CorruptWithReads(data, pe, sros, blockReads)
	}
	return a.noise.Corrupt(data, pe, sros)
}

// SenseResult is the outcome of a bitwise sense, which leaves data in the
// plane's cache register: the data itself, when the sensing finished
// (register valid), and how many bit errors the noise model injected.
type SenseResult struct {
	Data      []byte
	Ready     sim.Time
	FlipCount int
}

// parityOf returns the stored OOB parity for a programmed page, or nil.
func (a *Array) parityOf(p PageAddr) []byte {
	wl := a.wordlineAt(p.WordlineAddr)
	if wl == nil || wl.parity == nil {
		return nil
	}
	return wl.parity[p.Kind]
}

// Read senses a page and transfers it over the channel to the controller.
// The returned time is when the controller holds the data. Reads use the
// cache register (§2.1): the plane frees as soon as sensing completes,
// and the cache register holds the outgoing data while the next sense
// proceeds.
func (a *Array) Read(p PageAddr, at sim.Time) ([]byte, sim.Time, error) {
	return a.read(p, make([]byte, a.geo.PageSize), at)
}

// ReadInto is Read into the caller's page dst, which must be one page
// long: the same sensing, noise, ECC and transfer, without allocating
// the result. dst holds the page once ReadInto returns without error.
func (a *Array) ReadInto(dst []byte, p PageAddr, at sim.Time) (sim.Time, error) {
	if len(dst) != a.geo.PageSize {
		return 0, fmt.Errorf("%w: %d bytes, page is %d", ErrPageSize, len(dst), a.geo.PageSize)
	}
	_, done, err := a.read(p, dst, at)
	return done, err
}

// read is Read into the page dst, which the noise and ECC correction
// mutate. Its sense is priced by the page's read program (latch.ReadCost)
// and booked by book, like every bitwise sense. With noisy baseline reads
// enabled, the ECC path corrects raw errors against the page's stored
// parity — the flow ParaBit results cannot use (§4.4.3) — and a
// correction failure surfaces as a read error, like a real drive's.
func (a *Array) read(p PageAddr, dst []byte, at sim.Time) ([]byte, sim.Time, error) {
	if err := a.geo.CheckPage(p); err != nil {
		return nil, 0, err
	}
	jitter, err := a.checkFault(FaultSense, p.PlaneAddr, p.Block, at)
	if err != nil {
		return nil, 0, err
	}
	copy(dst, a.pageView(p.WordlineAddr, p.Kind))
	retries, err := a.decode(dst, p)
	c := latch.ReadCost(a.geo.CellBits, int(p.Kind), retries)
	sensed, _ := a.book(at, jitter, [][]WordlineAddr{{p.WordlineAddr}}, []latch.Cost{c}, "sense")
	if err != nil {
		return nil, 0, fmt.Errorf("flash: read %v after %d retries: %w", p, retries, err)
	}
	return dst, a.transferOut(p.Channel, sensed, len(dst)), nil
}

// decode injects the noise model's raw errors into a read page and
// corrects them against its parity, if a codec, a noise model and parity
// exist. An uncorrectable sector is re-read with calibrated reference
// voltages (§5.8), up to Timing.MaxReadRetries times. Decoding depends on
// data and noise alone, not on time, so read books its first sense and
// the retries decode returns as one span.
func (a *Array) decode(data []byte, p PageAddr) (int, error) {
	if a.codec == nil || a.noise == nil {
		return 0, nil
	}
	par := a.parityOf(p)
	if par == nil {
		return 0, nil
	}
	pe := a.peCycles(p.WordlineAddr)
	// The disturb the block absorbed before this read.
	exposure := a.planeAt(p.PlaneAddr).blocks[p.Block].reads
	a.stats.InjectedFlips += int64(a.corrupt(data, pe, latch.ReadCost(a.geo.CellBits, int(p.Kind), 0).SROs, exposure))
	n, err := a.codec.Decode(data, par)
	retries := 0
	for err != nil && retries < a.timing.MaxReadRetries {
		retries++
		copy(data, a.pageView(p.WordlineAddr, p.Kind))
		// A calibrated re-read senses once and quarters the effective
		// error exposure per attempt.
		a.stats.InjectedFlips += int64(a.corrupt(data, pe, 1, exposure>>(2*uint(retries))))
		n, err = a.codec.Decode(data, par)
	}
	a.stats.ReadRetries += int64(retries)
	if err == nil {
		a.stats.CorrectedBits += int64(n)
	}
	return retries, err
}

// transferOut books the channel for a plane->controller page transfer.
func (a *Array) transferOut(channel int, ready sim.Time, n int) sim.Time {
	_, end := a.buses[channel].ReserveLabeled(ready, a.timing.Transfer(n), "xfer-out")
	a.stats.BytesOut += int64(n)
	return end
}

// transferIn books the channel for a controller->plane transfer.
func (a *Array) transferIn(channel int, at sim.Time, n int) sim.Time {
	_, end := a.buses[channel].ReserveLabeled(at, a.timing.Transfer(n), "xfer-in")
	a.stats.BytesIn += int64(n)
	return end
}

// Program writes one page. Data is copied. MLC rules are enforced: the
// target page must be erased and a wordline's LSB page must be programmed
// before its MSB page. The returned time is program completion.
func (a *Array) Program(p PageAddr, data []byte, at sim.Time) (sim.Time, error) {
	return a.program(p, data, at, false)
}

// ProgramESP writes one page with enhanced SLC programming (Flash-Cosmos):
// the extra verify loops cost Timing.ProgramESP instead of ProgramPage and
// mark the page as holding the tightened distributions a multi-wordline
// sense needs full margin on.
func (a *Array) ProgramESP(p PageAddr, data []byte, at sim.Time) (sim.Time, error) {
	return a.program(p, data, at, true)
}

// IsESP reports whether a programmed page was written with enhanced SLC
// programming. Erased or never-programmed pages report false.
func (a *Array) IsESP(p PageAddr) bool {
	blk := &a.planeAt(p.PlaneAddr).blocks[p.Block]
	if blk.wl == nil {
		return false
	}
	wl := &blk.wl[p.WL]
	return int(p.Kind) < len(wl.esp) && wl.esp[p.Kind]
}

func (a *Array) program(p PageAddr, data []byte, at sim.Time, esp bool) (sim.Time, error) {
	if err := a.geo.CheckPage(p); err != nil {
		return 0, err
	}
	if len(data) != a.geo.PageSize {
		return 0, fmt.Errorf("%w: %d bytes, page is %d", ErrPageSize, len(data), a.geo.PageSize)
	}
	pl := a.planeAt(p.PlaneAddr)
	blk := &pl.blocks[p.Block]
	if blk.wl == nil {
		blk.wl = make([]wordline, a.geo.WordlinesPerBlock)
	}
	blk.changed = true
	wl := &blk.wl[p.WL]
	if wl.pages[p.Kind] != nil {
		return 0, fmt.Errorf("%w: %v", ErrNotErased, p)
	}
	// Pages of one wordline program in kind order (LSB first), the MLC
	// rule generalized to TLC.
	if p.Kind > 0 && wl.pages[p.Kind-1] == nil {
		return 0, fmt.Errorf("%w: %v", ErrProgramOrder, p)
	}
	progTime := a.timing.ProgramPage
	if esp {
		progTime = a.timing.ProgramESP
	}
	jitter, ferr := a.checkFault(FaultProgram, p.PlaneAddr, p.Block, at)
	if ferr != nil {
		a.failOp(pl, sim.Max(at, blk.programmed), progTime, jitter, ferr)
		return 0, ferr
	}
	// Data crosses the channel into the register, then the plane programs
	// once the block's earlier programs and erase have ended.
	xferEnd := a.transferIn(p.Channel, at, len(data))
	_, end := pl.sense.ReserveLabeled(sim.Max(xferEnd, blk.programmed), progTime+jitter, "program")
	blk.programmed = end
	buf := a.newPage()
	copy(buf, data)
	var par []byte
	if a.codec != nil {
		var perr error
		par, perr = a.codec.Encode(buf)
		if perr != nil {
			return 0, fmt.Errorf("flash: parity for %v: %w", p, perr)
		}
	}
	wl.pages[p.Kind] = buf
	blk.used++
	if par != nil {
		if wl.parity == nil {
			wl.parity = make([][]byte, a.geo.CellBits)
		}
		wl.parity[p.Kind] = par
	}
	wl.esp[p.Kind] = esp
	a.stats.Programs++
	return end, nil
}

// newPage returns a page buffer for a program: one an erase released, or
// a fresh one.
func (a *Array) newPage() []byte {
	if n := len(a.free); n > 0 {
		buf := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return buf
	}
	return make([]byte, a.geo.PageSize)
}

// Erase wipes a block, returning its wordlines to the erased (all ones)
// state and bumping the P/E cycle count. The block's page buffers go to
// the free list programs draw from; a failed erase keeps them in place.
func (a *Array) Erase(p PlaneAddr, blockIdx int, at sim.Time) (sim.Time, error) {
	if err := a.geo.CheckPlane(p); err != nil {
		return 0, err
	}
	if blockIdx < 0 || blockIdx >= a.geo.BlocksPerPlane {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	pl := a.planeAt(p)
	blk := &pl.blocks[blockIdx]
	jitter, ferr := a.checkFault(FaultErase, p, blockIdx, at)
	// The erase wipes what the block's booked programs write and its
	// booked senses read, so it starts after both.
	ready := sim.Max(at, sim.Max(blk.programmed, blk.sensed))
	if ferr != nil {
		a.failOp(pl, ready, a.timing.EraseBlock, jitter, ferr)
		return 0, ferr
	}
	_, end := pl.sense.ReserveLabeled(ready, a.timing.EraseBlock+jitter, "erase")
	blk.programmed = end
	for i := range blk.wl {
		for _, page := range blk.wl[i].pages {
			if page != nil && len(a.free) < a.freeCap {
				a.free = append(a.free, page)
			}
		}
	}
	clear(blk.wl)
	if a.refs != nil {
		first := a.geo.PPN(PageAddr{WordlineAddr: WordlineAddr{PlaneAddr: p, Block: blockIdx}})
		clear(a.refs[first : first+uint64(a.geo.PagesPerBlock())])
	}
	blk.erases++
	blk.reads = 0
	blk.used = 0
	blk.changed = true
	a.stats.Erases++
	return end, nil
}

// EraseCount returns a block's P/E cycle count.
func (a *Array) EraseCount(p PlaneAddr, blockIdx int) int {
	return a.planeAt(p).blocks[blockIdx].erases
}

// PageProgrammed reports whether the page currently holds data.
func (a *Array) PageProgrammed(p PageAddr) bool {
	wl := a.wordlineAt(p.WordlineAddr)
	return wl != nil && wl.pages[p.Kind] != nil
}
