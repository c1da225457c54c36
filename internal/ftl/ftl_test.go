package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/sim"
)

func newFTL() *FTL {
	return New(flash.NewArray(flash.Small(), flash.DefaultTiming()), DefaultConfig())
}

func page(f *FTL, seed byte) []byte {
	b := make([]byte, f.PageSize())
	for i := range b {
		b[i] = seed ^ byte(i)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFTL()
	for lpn := uint64(0); lpn < 20; lpn++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := uint64(0); lpn < 20; lpn++ {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := page(f, byte(lpn))
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("lpn %d byte %d: %02x vs %02x", lpn, i, data[i], want[i])
			}
		}
	}
}

func TestReadUnmapped(t *testing.T) {
	f := newFTL()
	if _, _, err := f.Read(5, 0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestLogicalRangeEnforced(t *testing.T) {
	f := newFTL()
	over := uint64(f.LogicalPages())
	if _, err := f.Write(over, page(f, 0), 0); !errors.Is(err, ErrLogicalRange) {
		t.Fatalf("write: err = %v, want ErrLogicalRange", err)
	}
	if _, _, err := f.Read(over, 0); !errors.Is(err, ErrLogicalRange) {
		t.Fatalf("read: err = %v, want ErrLogicalRange", err)
	}
}

func TestOverwriteRemaps(t *testing.T) {
	f := newFTL()
	f.Write(7, page(f, 1), 0)
	first, _ := f.Lookup(7)
	f.Write(7, page(f, 2), 0)
	second, _ := f.Lookup(7)
	if first == second {
		t.Fatal("overwrite did not move the page (no out-of-place update)")
	}
	data, _, _ := f.Read(7, 0)
	if data[0] != page(f, 2)[0] {
		t.Fatal("read returned stale data")
	}
	if f.MappedPages() != 1 {
		t.Fatalf("mapped pages = %d, want 1", f.MappedPages())
	}
}

func TestStripingSpreadsChannels(t *testing.T) {
	f := newFTL()
	g := f.Array().Geometry()
	channels := map[int]bool{}
	for lpn := uint64(0); lpn < uint64(g.Channels); lpn++ {
		f.Write(lpn, page(f, byte(lpn)), 0)
		addr, _ := f.Lookup(lpn)
		channels[addr.Channel] = true
	}
	if len(channels) != g.Channels {
		t.Fatalf("%d consecutive pages hit %d channels, want %d",
			g.Channels, len(channels), g.Channels)
	}
}

func TestWritePairedSharesWordline(t *testing.T) {
	f := newFTL()
	if _, err := f.Place(Layout{Shape: Shared}, []uint64{10, 11}, [][]byte{page(f, 0xAA), page(f, 0x55)}, 0); err != nil {
		t.Fatal(err)
	}
	a1, _ := f.Lookup(10)
	a2, _ := f.Lookup(11)
	if a1.WordlineAddr != a2.WordlineAddr {
		t.Fatalf("paired pages on different wordlines: %v, %v", a1, a2)
	}
	if a1.Kind != flash.LSBPage || a2.Kind != flash.MSBPage {
		t.Fatalf("paired kinds = %v, %v", a1.Kind, a2.Kind)
	}
	x, _, _ := f.Read(10, 0)
	y, _, _ := f.Read(11, 0)
	if x[0] != page(f, 0xAA)[0] || y[0] != page(f, 0x55)[0] {
		t.Fatal("paired data corrupted")
	}
}

func TestWritePairedAfterOddWrite(t *testing.T) {
	f := newFTL()
	// Odd single write leaves a plane mid-wordline somewhere; pairing must
	// still produce a shared wordline (padding the dangling MSB slot).
	g := f.Array().Geometry()
	for lpn := uint64(0); lpn < uint64(g.Planes())+1; lpn++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Place(Layout{Shape: Shared}, []uint64{500, 501}, [][]byte{page(f, 1), page(f, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	a1, _ := f.Lookup(500)
	a2, _ := f.Lookup(501)
	if a1.WordlineAddr != a2.WordlineAddr || a1.Kind != flash.LSBPage {
		t.Fatal("pairing broken after odd write")
	}
}

func TestRelocationAccounting(t *testing.T) {
	f := newFTL()
	f.Write(1, page(f, 1), 0)
	f.Place(Layout{Extra: true}, []uint64{2}, [][]byte{page(f, 2)}, 0)
	f.Place(Layout{Shape: Shared, Extra: true}, []uint64{3, 4}, [][]byte{page(f, 3), page(f, 4)}, 0)
	s := f.Stats()
	if s.HostPagesWritten != 1 {
		t.Fatalf("host pages = %d, want 1", s.HostPagesWritten)
	}
	if s.ExtraPagesWritten != 3 {
		t.Fatalf("extra pages = %d, want 3", s.ExtraPagesWritten)
	}
	wa := s.WriteAmplification()
	if wa != 4.0 {
		t.Fatalf("write amplification = %v, want 4", wa)
	}
}

func TestWriteAmplificationEmpty(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 1 {
		t.Fatal("empty stats WA != 1")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	// Small geometry, heavy overwrite of a narrow LPN range: GC must keep
	// the device usable far beyond one device-full of writes.
	f := newFTL()
	g := f.Array().Geometry()
	totalPhysical := g.TotalPages()
	hot := uint64(64)
	writes := totalPhysical * 3 // 3x device capacity
	rng := rand.New(rand.NewSource(42))
	for i := int64(0); i < writes; i++ {
		lpn := uint64(rng.Intn(int(hot)))
		if _, err := f.Write(lpn, page(f, byte(i)), 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := f.Stats()
	if s.GCRuns == 0 {
		t.Fatal("no GC ran despite 3x-capacity write traffic")
	}
	if f.MappedPages() > int(hot) {
		t.Fatalf("mapped pages = %d, want <= %d", f.MappedPages(), hot)
	}
	// Everything must still read back as the latest version — spot check.
	for lpn := uint64(0); lpn < hot; lpn++ {
		if _, _, err := f.Read(lpn, 0); err != nil && !errors.Is(err, ErrUnmapped) {
			t.Fatalf("read after GC churn: %v", err)
		}
	}
}

func TestGCDataIntegrity(t *testing.T) {
	// Track golden values while churning; every surviving LPN must read
	// back its last-written content after GC has relocated pages.
	f := newFTL()
	g := f.Array().Geometry()
	golden := map[uint64]byte{}
	rng := rand.New(rand.NewSource(7))
	// A hot set around half the device keeps victims partially valid, so
	// GC must relocate (not just erase) to reclaim space.
	hot := int(f.LogicalPages() / 2)
	writes := g.TotalPages() * 2
	for i := int64(0); i < writes; i++ {
		lpn := uint64(rng.Intn(hot))
		seed := byte(rng.Intn(256))
		if _, err := f.Write(lpn, page(f, seed), 0); err != nil {
			t.Fatal(err)
		}
		golden[lpn] = seed
	}
	if f.Stats().GCPagesMoved == 0 {
		t.Fatal("test did not exercise GC relocation")
	}
	for lpn, seed := range golden {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		want := page(f, seed)
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("lpn %d byte %d corrupted after GC", lpn, i)
			}
		}
	}
}

func TestWearLevelingPrefersLowErase(t *testing.T) {
	f := newFTL()
	g := f.Array().Geometry()
	// Manually erase block 0 of plane 0 many times so its count is high.
	addr := g.PlaneAt(0)
	for i := 0; i < 5; i++ {
		if _, err := f.Array().Erase(addr, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The first allocation on plane 0 should avoid block 0.
	if _, err := f.Place(Layout{Shape: Shared}, []uint64{0, 1}, [][]byte{page(f, 0), page(f, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	a, _ := f.Lookup(0)
	if a.PlaneAddr == addr && a.Block == 0 {
		t.Fatal("allocator picked the high-erase block")
	}
}

func TestTrim(t *testing.T) {
	f := newFTL()
	f.Write(3, page(f, 3), 0)
	f.Trim(3)
	if _, _, err := f.Read(3, 0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read after trim: %v", err)
	}
	if f.MappedPages() != 0 {
		t.Fatal("trim left mapping")
	}
}

func TestDeviceFull(t *testing.T) {
	// No GC can help when every page is valid: filling the entire logical
	// space with unique LPNs on a tiny device must eventually fail cleanly
	// once physical space (logical + OP) is exhausted by padding-free
	// sequential writes... it should NOT fail before logical capacity.
	geo := flash.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 4, WordlinesPerBlock: 4, PageSize: 64, CellBits: 2,
	}
	f := New(flash.NewArray(geo, flash.DefaultTiming()), Config{OverprovisionPct: 0.25, GCFreeBlockLow: 1})
	var failedAt int64 = -1
	for lpn := int64(0); lpn < f.LogicalPages()*2; lpn++ {
		if _, err := f.Write(uint64(lpn)%uint64(f.LogicalPages()), page(f, byte(lpn)), 0); err != nil {
			failedAt = lpn
			if !errors.Is(err, ErrDeviceFull) {
				t.Fatalf("unexpected error at %d: %v", lpn, err)
			}
			break
		}
	}
	// With 25% OP and steady overwrite traffic, GC always finds victims
	// with invalid pages, so the device should never report full.
	if failedAt >= 0 && failedAt < f.LogicalPages() {
		t.Fatalf("device full after only %d writes (logical capacity %d)", failedAt, f.LogicalPages())
	}
}

func TestTimingMonotonic(t *testing.T) {
	f := newFTL()
	var last int64
	for lpn := uint64(0); lpn < 50; lpn++ {
		done, err := f.Write(lpn, page(f, byte(lpn)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(done) <= 0 {
			t.Fatalf("write %d completed at %v", lpn, done)
		}
		_ = last
	}
}

func TestParallelWritesFasterThanSerial(t *testing.T) {
	// Striped writes across planes must complete much faster than the
	// same number of writes would take on one plane.
	f := newFTL()
	g := f.Array().Geometry()
	n := g.Planes()
	var maxDone int64
	for lpn := 0; lpn < n; lpn++ {
		done, err := f.Write(uint64(lpn), page(f, byte(lpn)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(done) > maxDone {
			maxDone = int64(done)
		}
	}
	serial := int64(n) * int64(f.Array().Timing().ProgramPage)
	if maxDone >= serial {
		t.Fatalf("parallel writes took %d ns, not faster than serial %d ns", maxDone, serial)
	}
}

func ExampleFTL_Place() {
	array := flash.NewArray(flash.Small(), flash.DefaultTiming())
	f := New(array, DefaultConfig())
	x := make([]byte, f.PageSize())
	y := make([]byte, f.PageSize())
	_, _ = f.Place(Layout{Shape: Shared}, []uint64{0, 1}, [][]byte{x, y}, 0)
	a, _ := f.Lookup(0)
	b, _ := f.Lookup(1)
	fmt.Println(a.WordlineAddr == b.WordlineAddr, a.Kind, b.Kind)
	// Output: true LSB MSB
}

func TestWriteLSBPair(t *testing.T) {
	f := newFTL()
	wls, _, err := f.WriteLSBGroup([]uint64{20, 21}, [][]byte{page(f, 0x70), page(f, 0x07)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, n := wls[0], wls[1]
	if m.PlaneAddr != n.PlaneAddr {
		t.Fatalf("pair split across planes: %v vs %v", m, n)
	}
	if m == n {
		t.Fatal("both operands on one wordline (should be two LSB pages)")
	}
	aM, _ := f.Lookup(20)
	aN, _ := f.Lookup(21)
	if aM.Kind != flash.LSBPage || aN.Kind != flash.LSBPage {
		t.Fatalf("kinds %v/%v, want LSB/LSB", aM.Kind, aN.Kind)
	}
	if aM.WordlineAddr != m || aN.WordlineAddr != n {
		t.Fatal("lookups disagree with returned wordlines")
	}
	// Both MSB slots padded.
	if f.Stats().PaddedPages < 2 {
		t.Fatalf("padded pages = %d, want >= 2", f.Stats().PaddedPages)
	}
	x, _, _ := f.Read(20, 0)
	y, _, _ := f.Read(21, 0)
	if x[0] != page(f, 0x70)[0] || y[0] != page(f, 0x07)[0] {
		t.Fatal("data corrupted")
	}
}

func TestWriteTriple(t *testing.T) {
	f := New(flash.NewArray(flash.SmallTLC(), flash.TLCTiming()), DefaultConfig())
	var data [3][]byte
	for i := range data {
		data[i] = page(f, byte(0x20+i))
	}
	if _, err := f.Place(Layout{Shape: Shared}, []uint64{5, 6, 7}, data[:], 0); err != nil {
		t.Fatal(err)
	}
	first, _ := f.Lookup(5)
	wl := first.WordlineAddr
	kinds := []flash.PageKind{flash.LSBPage, flash.MSBPage, flash.TopPage}
	for i, lpn := range []uint64{5, 6, 7} {
		addr, ok := f.Lookup(lpn)
		if !ok || addr.WordlineAddr != wl || addr.Kind != kinds[i] {
			t.Fatalf("lpn %d at %v (wl %v)", lpn, addr, wl)
		}
		got, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != data[i][0] {
			t.Fatalf("lpn %d corrupted", lpn)
		}
	}
}

func TestWriteTripleRejectedOnMLC(t *testing.T) {
	f := newFTL()
	var data [3][]byte
	for i := range data {
		data[i] = page(f, 1)
	}
	if _, err := f.Place(Layout{Shape: Shared}, []uint64{0, 1, 2}, data[:], 0); err == nil {
		t.Fatal("triple accepted on MLC")
	}
}

func TestTLCFTLGCIntegrity(t *testing.T) {
	// GC on a TLC device must relocate all three kinds correctly.
	f := New(flash.NewArray(flash.SmallTLC(), flash.TLCTiming()), DefaultConfig())
	g := f.Array().Geometry()
	golden := map[uint64]byte{}
	rng := rand.New(rand.NewSource(13))
	hot := int(f.LogicalPages() / 2)
	writes := g.TotalPages() * 2
	for i := int64(0); i < writes; i++ {
		lpn := uint64(rng.Intn(hot))
		seed := byte(rng.Intn(256))
		if _, err := f.Write(lpn, page(f, seed), 0); err != nil {
			t.Fatal(err)
		}
		golden[lpn] = seed
	}
	if f.Stats().GCPagesMoved == 0 {
		t.Fatal("no GC relocation on TLC device")
	}
	checked := 0
	for lpn, seed := range golden {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		if data[0] != page(f, seed)[0] {
			t.Fatalf("lpn %d corrupted after TLC GC", lpn)
		}
		checked++
		if checked > 2000 {
			break
		}
	}
}

// TestReadsMoveNoPage reads every page of a sealed block hundreds of
// times. A read never migrates a page, so every version, the allocator's
// free, full and bad lists and the array's program and erase counts stay
// as they were, while the block's read count (the error model's
// read-disturb input) grows.
func TestReadsMoveNoPage(t *testing.T) {
	f := newFTL()
	g := f.Array().Geometry()
	n := g.PagesPerBlock() * g.Planes() * 2
	for lpn := 0; lpn < n; lpn++ {
		if _, err := f.Write(uint64(lpn), page(f, byte(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := f.Lookup(0)
	pa := f.planes[g.PlaneIndex(addr.PlaneAddr)]
	if !slices.Contains(pa.full, addr.Block) {
		t.Fatalf("block %d of lpn 0 is not sealed", addr.Block)
	}
	type state struct {
		vers             []uint64
		free, full, bad  [][]int
		programs, erases int64
	}
	snap := func() state {
		var st state
		for lpn := 0; lpn < n; lpn++ {
			st.vers = append(st.vers, f.Version(uint64(lpn)))
		}
		for _, p := range f.planes {
			st.free = append(st.free, slices.Clone(p.free))
			st.full = append(st.full, slices.Clone(p.full))
			st.bad = append(st.bad, slices.Clone(p.bad))
		}
		fs := f.Array().Stats()
		st.programs, st.erases = fs.Programs, fs.Erases
		return st
	}
	before := snap()
	const rounds = 300
	for r := 0; r < rounds; r++ {
		for slot := 0; slot < g.PagesPerBlock(); slot++ {
			lpn, ok := pa.owner(addr.Block, slot)
			if !ok {
				t.Fatalf("round %d: slot %d of the block lost its page", r, slot)
			}
			data, _, err := f.Read(lpn, 0)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != page(f, byte(lpn))[0] {
				t.Fatalf("round %d: lpn %d reads back corrupted", r, lpn)
			}
		}
	}
	if after := snap(); !reflect.DeepEqual(before, after) {
		t.Fatalf("reads changed the FTL:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := f.Array().ReadCount(addr.PlaneAddr, addr.Block); got < rounds*g.PagesPerBlock() {
		t.Fatalf("block read count %d after %d reads", got, rounds*g.PagesPerBlock())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRetriesPastWedgedPlane fills one plane with fully valid data
// (so its allocator rejects new blocks) and verifies striped writes still
// succeed by retrying on the remaining planes instead of reporting the
// whole device full.
func TestWriteRetriesPastWedgedPlane(t *testing.T) {
	geo := flash.Geometry{
		Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 8, WordlinesPerBlock: 4, PageSize: 64, CellBits: 2,
	}
	// GCFreeBlockLow 0 lets a plane run its free list down to the single
	// reserve block, at which point its allocator refuses new data blocks
	// even though the sibling plane is wide open.
	cfg := Config{OverprovisionPct: 0.25, GCFreeBlockLow: 0}
	f := New(flash.NewArray(geo, flash.DefaultTiming()), cfg)

	// Fill plane 0 completely with valid pages, bypassing GC.
	pa0 := f.planes[0]
	lpn := uint64(0)
	for {
		if _, err := f.writeTo(pa0, lpn, page(f, byte(lpn)), 0, false); err != nil {
			if !errors.Is(err, ErrDeviceFull) {
				t.Fatal(err)
			}
			break
		}
		lpn++
	}
	if len(pa0.free) != 0 {
		t.Fatalf("plane 0 not wedged: %d free blocks", len(pa0.free))
	}
	// Striped writes round-robin over both planes; every one must succeed
	// even when the cursor lands on the wedged plane.
	for i := 0; i < 3*len(f.planes); i++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			t.Fatalf("striped write %d: %v (plane 1 still has %d free blocks)",
				i, err, len(f.planes[1].free))
		}
		lpn++
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsAfterChurn exercises the bookkeeping checker across a
// GC-heavy workload.
func TestCheckInvariantsAfterChurn(t *testing.T) {
	f := New(flash.NewArray(flash.Small(), flash.DefaultTiming()),
		Config{OverprovisionPct: 0.2, GCFreeBlockLow: 2})
	rng := rand.New(rand.NewSource(3))
	logical := uint64(f.LogicalPages())
	for i := 0; i < 6000; i++ {
		lpn := uint64(rng.Intn(int(logical / 4)))
		if _, err := f.Write(lpn, page(f, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 {
			f.Trim(uint64(rng.Intn(int(logical / 4))))
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceRejectsGroupsItsLayoutCannotHold(t *testing.T) {
	f := newFTL()
	g := f.Array().Geometry()
	pages := func(n int) ([]uint64, [][]byte) {
		lpns, data := make([]uint64, n), make([][]byte, n)
		for i := range lpns {
			lpns[i], data[i] = uint64(i), page(f, byte(i))
		}
		return lpns, data
	}
	for _, tc := range []struct {
		name string
		l    Layout
		n    int
	}{
		{"empty", Layout{}, 0},
		{"shared-overflow", Layout{Shape: Shared}, g.CellBits + 1},
		{"block-overflow", Layout{Shape: LSBOnly, OneBlock: true}, g.WordlinesPerBlock + 1},
		{"plane-out-of-range", Layout{Shape: LSBOnly, Fixed: true, Plane: g.Planes()}, 1},
	} {
		lpns, data := pages(tc.n)
		if _, err := f.Place(tc.l, lpns, data, 0); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := f.Place(Layout{}, []uint64{0, 1}, [][]byte{page(f, 0)}, 0); err == nil {
		t.Error("group with fewer pages than lpns accepted")
	}
	if f.MappedPages() != 0 || f.Stats() != (Stats{}) {
		t.Fatalf("a rejected group left state behind: %d mapped, %+v", f.MappedPages(), f.Stats())
	}
}

// TestGCRelocationAllocations pins a warm garbage-collection pass to
// fewer allocations than pages it moves: relocation reads into one
// FTL-owned page, and erased blocks recycle their page buffers.
func TestGCRelocationAllocations(t *testing.T) {
	f := newFTL()
	rng := rand.New(rand.NewSource(3))
	hot := int(f.LogicalPages() / 2)
	data := page(f, 1)
	var at sim.Time
	for i := 0; f.Stats().GCPagesMoved == 0 || i < 4000; i++ {
		done, err := f.Write(uint64(rng.Intn(hot)), data, at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	pa := f.planes[0]
	moved := f.Stats().GCPagesMoved
	allocs := testing.AllocsPerRun(20, func() {
		done, err := f.collectPlane(pa, at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	})
	perPass := float64(f.Stats().GCPagesMoved-moved) / 21
	t.Logf("%.1f allocs per pass moving %.1f pages", allocs, perPass)
	if perPass < 8 || allocs > perPass/8 {
		t.Fatalf("%.1f allocs per GC pass moving %.1f pages", allocs, perPass)
	}
}

// TestGCEraseWaitsForBookedSense runs a GC pass at a batch's issue
// instant after an earlier command of the batch booked a read of the
// victim block for a later instant, as a later step of a multi-sense
// command does. The pass relocates the block's pages, and its erase,
// though issued long before that read, must not start until the read's
// sense has ended.
func TestGCEraseWaitsForBookedSense(t *testing.T) {
	f := newFTL()
	g := f.Array().Geometry()
	data := page(f, 1)
	for lpn := 0; lpn < g.PagesPerBlock()*g.Planes()*2; lpn++ {
		if _, err := f.Write(uint64(lpn), data, 0); err != nil {
			t.Fatal(err)
		}
	}
	issue := f.Array().DrainTime()
	// Trim all but one page of a sealed block, making it collectPlane's
	// victim and its relocation short.
	pa := f.planes[0]
	victim := pa.full[0]
	lpn, ok := pa.owner(victim, 0)
	if !ok {
		t.Fatalf("block %d holds no page in slot 0", victim)
	}
	for slot := 1; slot < g.PagesPerBlock(); slot++ {
		if other, ok := pa.owner(victim, slot); ok {
			f.Trim(other)
		}
	}
	erases := f.Array().EraseCount(pa.addr, victim)
	var sensed, erase sim.Time
	f.Array().InstrumentResources(func(name string) sim.ReserveObserver {
		if name != "plane-0" {
			return nil
		}
		return func(label string, start, end sim.Time) {
			switch label {
			case "sense":
				sensed = max(sensed, end)
			case "erase":
				erase = start
			}
		}
	})
	if _, _, err := f.Read(lpn, issue.Add(20*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	booked := sensed
	if _, err := f.collectPlane(pa, issue); err != nil {
		t.Fatal(err)
	}
	if f.Array().EraseCount(pa.addr, victim) != erases+1 {
		t.Fatalf("GC did not erase block %d", victim)
	}
	if erase < booked {
		t.Fatalf("GC erased block %d at %v, before a booked sense of it ended at %v", victim, erase, booked)
	}
}
