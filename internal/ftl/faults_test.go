package ftl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/sim"
)

// scriptInjector fails a scripted number of programs and erases (-1 for
// all of them), for tests that need exact fault placement without a plan.
type scriptInjector struct {
	failPrograms int
	failErases   int
}

func (s *scriptInjector) Inspect(op flash.FaultOp, plane flash.PlaneAddr, block int, at sim.Time) flash.FaultOutcome {
	fire := func(n *int, kind flash.FaultKind) flash.FaultOutcome {
		if *n == 0 {
			return flash.FaultOutcome{}
		}
		if *n > 0 {
			*n--
		}
		return flash.FaultOutcome{Err: &flash.FaultError{Op: op, Kind: kind, Plane: plane, Block: block}}
	}
	switch op {
	case flash.FaultProgram:
		return fire(&s.failPrograms, flash.FaultProgramFail)
	case flash.FaultErase:
		return fire(&s.failErases, flash.FaultEraseFail)
	}
	return flash.FaultOutcome{}
}

func TestProgramFailResteer(t *testing.T) {
	f := newFTL()
	for lpn := uint64(0); lpn < 10; lpn++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	inj := &scriptInjector{failPrograms: 1}
	f.Array().SetFaultInjector(inj)
	if _, err := f.Write(3, page(f, 0xAB), 0); err != nil {
		t.Fatalf("write across one program failure should re-steer: %v", err)
	}
	f.Array().SetFaultInjector(nil)

	st := f.Stats()
	if st.ProgramFails != 1 || st.ResteeredWrites != 1 {
		t.Errorf("ProgramFails=%d ResteeredWrites=%d, want 1/1", st.ProgramFails, st.ResteeredWrites)
	}
	if st.BlocksRetired != 1 || f.BadBlocks() != 1 {
		t.Errorf("BlocksRetired=%d BadBlocks=%d, want 1/1", st.BlocksRetired, f.BadBlocks())
	}
	// The re-steered write and every earlier acknowledged page read back.
	for lpn := uint64(0); lpn < 10; lpn++ {
		want := page(f, byte(lpn))
		if lpn == 3 {
			want = page(f, 0xAB)
		}
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if data[0] != want[0] || data[1] != want[1] {
			t.Fatalf("lpn %d corrupted after re-steer", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPermanentProgramFailureKeepsOldData(t *testing.T) {
	f := newFTL()
	if _, err := f.Write(5, page(f, 0x11), 0); err != nil {
		t.Fatal(err)
	}
	// Every program fails: the overwrite must error out, never ack, and
	// never destroy the previously acknowledged copy.
	f.Array().SetFaultInjector(&scriptInjector{failPrograms: -1})
	if _, err := f.Write(5, page(f, 0x22), 0); err == nil {
		t.Fatal("write with all programs failing was acknowledged")
	}
	f.Array().SetFaultInjector(nil)

	data, _, err := f.Read(5, 0)
	if err != nil {
		t.Fatalf("read acknowledged page: %v", err)
	}
	want := page(f, 0x11)
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("byte %d: %02x, want %02x (old copy lost)", i, data[i], want[i])
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailRetiresDuringGC(t *testing.T) {
	geo := flash.Small()
	f := New(flash.NewArray(geo, flash.DefaultTiming()), Config{OverprovisionPct: 0.25, GCFreeBlockLow: 1})
	inj := &scriptInjector{failErases: 1}
	f.Array().SetFaultInjector(inj)
	logical := uint64(f.LogicalPages())
	// Overwrite the logical space until GC has certainly erased (or here:
	// failed to erase and retired) at least one victim.
	for round := 0; round < 3; round++ {
		for lpn := uint64(0); lpn < logical; lpn++ {
			if _, err := f.Write(lpn, page(f, byte(lpn)^byte(round)), 0); err != nil {
				t.Fatalf("round %d lpn %d: %v", round, lpn, err)
			}
		}
	}
	f.Array().SetFaultInjector(nil)
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("workload never triggered GC; erase-fail path not exercised")
	}
	if st.EraseFails != 1 || st.BlocksRetired != 1 {
		t.Errorf("EraseFails=%d BlocksRetired=%d, want 1/1", st.EraseFails, st.BlocksRetired)
	}
	for lpn := uint64(0); lpn < logical; lpn++ {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if want := byte(lpn) ^ 2; data[0] != want {
			t.Fatalf("lpn %d: %02x, want %02x", lpn, data[0], want)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStuckBlockRetiredViaPlan(t *testing.T) {
	geo := flash.Small()
	f := New(flash.NewArray(geo, flash.DefaultTiming()), DefaultConfig())
	eng, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{
		{Type: faults.RuleStuckBlock, Plane: 0, Block: 0},
	}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	f.Array().SetFaultInjector(eng)
	// A full stripe across all planes forces one allocation on plane 0,
	// which opens (lowest-wear) block 0, hits the stuck block, retires it
	// and re-steers.
	for lpn := uint64(0); lpn < uint64(geo.Planes()); lpn++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
	}
	if f.BadBlocks() != 1 {
		t.Errorf("BadBlocks=%d, want 1 (the stuck block)", f.BadBlocks())
	}
	if got := eng.Stats().StuckBlock; got == 0 {
		t.Error("engine never reported the stuck block")
	}
	for lpn := uint64(0); lpn < uint64(geo.Planes()); lpn++ {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if data[0] != page(f, byte(lpn))[0] {
			t.Fatalf("lpn %d corrupted", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTransientPlaneFaultSurfacesRetryable(t *testing.T) {
	geo := flash.Small()
	f := New(flash.NewArray(geo, flash.DefaultTiming()), DefaultConfig())
	eng, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{
		{Type: faults.RulePlaneTransient, Plane: -1, FromUS: 0, ToUS: 100},
	}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	f.Array().SetFaultInjector(eng)
	_, werr := f.Write(0, page(f, 1), 0)
	if !flash.IsTransientFault(werr) {
		t.Fatalf("write during outage: %v, want transient fault", werr)
	}
	if f.BadBlocks() != 0 || f.Stats().BlocksRetired != 0 {
		t.Error("transient fault must not retire blocks")
	}
	if f.MappedPages() != 0 {
		t.Error("failed write left a mapping behind")
	}
	// After the window the same write succeeds — exactly what a
	// bounded-backoff retry at the scheduler would do.
	later := sim.Time(200 * sim.Microsecond)
	if _, err := f.Write(0, page(f, 1), later); err != nil {
		t.Fatalf("write after outage: %v", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritePairedResteersOnProgramFail(t *testing.T) {
	f := newFTL()
	f.Array().SetFaultInjector(&scriptInjector{failPrograms: 1})
	_, err := f.Place(Layout{Shape: Shared}, []uint64{0, 1}, [][]byte{page(f, 0x0A), page(f, 0x0B)}, 0)
	f.Array().SetFaultInjector(nil)
	if err != nil {
		t.Fatalf("paired write across one program failure: %v", err)
	}
	if f.BadBlocks() != 1 {
		t.Errorf("BadBlocks=%d, want 1", f.BadBlocks())
	}
	// Both pages must land on the same (healthy) wordline and read back.
	aL, okL := f.Lookup(0)
	aM, okM := f.Lookup(1)
	if !okL || !okM || aL.WordlineAddr != aM.WordlineAddr || aL.Kind == aM.Kind {
		t.Fatalf("paired pages not co-located: %v / %v", aL, aM)
	}
	for lpn, seed := range map[uint64]byte{0: 0x0A, 1: 0x0B} {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != page(f, seed)[0] {
			t.Fatalf("lpn %d corrupted", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceFullStillDistinctFromFault(t *testing.T) {
	// A genuinely full device must keep reporting ErrDeviceFull, not a
	// fault, so callers can tell capacity exhaustion from hardware trouble.
	geo := flash.Small()
	f := New(flash.NewArray(geo, flash.DefaultTiming()), Config{OverprovisionPct: 0.0, GCFreeBlockLow: 1})
	var lastErr error
	for lpn := uint64(0); ; lpn++ {
		if lpn >= uint64(f.LogicalPages()) {
			lpn = 0
		}
		if _, lastErr = f.Write(lpn, page(f, byte(lpn)), 0); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrDeviceFull) {
		t.Fatalf("filling an un-overprovisioned device: %v, want ErrDeviceFull", lastErr)
	}
	if flash.AsFaultError(lastErr) != nil {
		t.Fatal("capacity exhaustion misreported as a hardware fault")
	}
}

// relocationFault fails the first program that relocates a page into a
// block that already holds valid pages. It takes a program right after a
// sense for a relocation: a write senses a page only for GC to relocate
// it.
type relocationFault struct {
	f             *FTL
	sensed, fired bool
}

func (r *relocationFault) Inspect(op flash.FaultOp, plane flash.PlaneAddr, block int, at sim.Time) flash.FaultOutcome {
	switch op {
	case flash.FaultSense:
		r.sensed = true
		return flash.FaultOutcome{}
	case flash.FaultProgram:
		relocating := r.sensed
		r.sensed = false
		if !relocating || r.fired {
			return flash.FaultOutcome{}
		}
	default:
		return flash.FaultOutcome{}
	}
	for _, pa := range r.f.planes {
		if pa.addr == plane && pa.valid[block] == 0 {
			return flash.FaultOutcome{}
		}
	}
	r.fired = true
	return flash.FaultOutcome{Err: &flash.FaultError{Op: op, Kind: flash.FaultProgramFail, Plane: plane, Block: block}}
}

// TestGCRelocationProgramFailLandsItsPage fails a relocation's program
// mid-GC. The failed block's retirement moves its own valid pages before
// the relocation is re-issued, and must not disturb the page the
// relocation carries: every page reads back what was last written.
func TestGCRelocationProgramFailLandsItsPage(t *testing.T) {
	f := newFTL()
	inj := &relocationFault{f: f}
	f.Array().SetFaultInjector(inj)
	rng := rand.New(rand.NewSource(9))
	hot := int(f.LogicalPages() / 2)
	golden := map[uint64]byte{}
	for i := 0; !inj.fired || i%512 != 0; i++ {
		lpn, seed := uint64(rng.Intn(hot)), byte(rng.Intn(256))
		if _, err := f.Write(lpn, page(f, seed), 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		golden[lpn] = seed
	}
	f.Array().SetFaultInjector(nil)
	st := f.Stats()
	if st.ProgramFails != 1 || st.BlocksRetired != 1 || st.RetirePagesMoved == 0 || st.GCPagesMoved == 0 {
		t.Fatalf("program fails %d, retired %d moving %d pages, GC moved %d: want one retirement that moved pages during GC",
			st.ProgramFails, st.BlocksRetired, st.RetirePagesMoved, st.GCPagesMoved)
	}
	for lpn, seed := range golden {
		data, _, err := f.Read(lpn, 0)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		if !bytes.Equal(data, page(f, seed)) {
			t.Fatalf("lpn %d reads back wrong bytes", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
