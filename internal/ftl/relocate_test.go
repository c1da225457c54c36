package ftl

import (
	"bytes"
	"slices"
	"testing"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// resBooking is one reservation a plane or channel received.
type resBooking struct {
	res, label string
	start, end sim.Time
}

// recordBookings records every reservation on f's planes and channels,
// in booking order.
func recordBookings(f *FTL) *[]resBooking {
	got := new([]resBooking)
	f.Array().InstrumentResources(func(name string) sim.ReserveObserver {
		return func(label string, start, end sim.Time) {
			*got = append(*got, resBooking{name, label, start, end})
		}
	})
	return got
}

// fillPlane0 writes blocks full blocks of logical pages, numbered from
// first, onto plane 0 and records each page's seed in golden.
func fillPlane0(t *testing.T, f *FTL, first uint64, blocks int, golden map[uint64]byte) {
	t.Helper()
	for i := range uint64(blocks) * f.perBlock {
		lpn := first + i
		if _, err := f.Place(Layout{Fixed: true}, []uint64{lpn}, [][]byte{page(f, byte(lpn))}, 0); err != nil {
			t.Fatal(err)
		}
		golden[lpn] = byte(lpn)
	}
}

// thinBlock trims every page of block blk on plane 0 past its first
// keep, making it the plane's GC victim.
func thinBlock(f *FTL, blk, keep int, golden map[uint64]byte) {
	pa := f.planes[0]
	for slot := keep; slot < int(f.perBlock); slot++ {
		if lpn, ok := pa.owner(blk, slot); ok {
			f.Trim(lpn)
			delete(golden, lpn)
		}
	}
}

// checkReadBack reads every logical page in golden back and checks the
// FTL's invariants.
func checkReadBack(t *testing.T, f *FTL, golden map[uint64]byte) {
	t.Helper()
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

// TestGCRelocationPipelinesAcrossPlanes collects a block holding 12
// valid pages. Its copies program on several planes at once, the victim
// is erased only after the last of them, and the relocation ends well
// before its reads and programs would end one after another.
func TestGCRelocationPipelinesAcrossPlanes(t *testing.T) {
	f := newFTL()
	golden := map[uint64]byte{}
	fillPlane0(t, f, 0, 4, golden)
	pa := f.planes[0]
	victim := pa.full[0]
	thinBlock(f, victim, 12, golden)
	at := f.Array().DrainTime()
	got := recordBookings(f)
	end, err := f.collectPlane(pa, at)
	if err != nil {
		t.Fatal(err)
	}
	if moved := f.Stats().GCPagesMoved; moved != 12 {
		t.Fatalf("GC moved %d pages, want 12", moved)
	}
	var erase resBooking
	var programs []resBooking
	var serial sim.Duration // the reads and programs end to end
	for _, b := range *got {
		switch b.label {
		case "erase":
			erase = b
			continue
		case "program":
			programs = append(programs, b)
		}
		serial += b.end.Sub(b.start)
	}
	if erase.res != "plane-0" || end != erase.end {
		t.Fatalf("pass ended at %v, erase booked %+v", end, erase)
	}
	var last sim.Time
	planes := map[string]bool{}
	overlap := false
	for i, p := range programs {
		last = max(last, p.end)
		planes[p.res] = true
		for _, q := range programs[:i] {
			overlap = overlap || q.res != p.res && q.start < p.end && p.start < q.end
		}
	}
	if erase.start < last {
		t.Errorf("victim erased from %v, before its last copy's program ended at %v", erase.start, last)
	}
	if len(planes) < 2 || !overlap {
		t.Errorf("copies programmed on %d planes, overlapping: %v; want at least 2 planes at once", len(planes), overlap)
	}
	if took := last.Sub(at); 2*took > serial {
		t.Errorf("relocation took %v, want under half of the %v its reads and programs take in series", took, serial)
	}
	checkReadBack(t, f, golden)
}

// TestGCRelocationErasesAfterLatestCopy keeps the first copy's target
// plane busy with an erase, so that copy, and the one after it on the
// same plane, program after every later copy has. The victim's erase
// still waits for them.
func TestGCRelocationErasesAfterLatestCopy(t *testing.T) {
	f := newFTL()
	golden := map[uint64]byte{}
	fillPlane0(t, f, 0, 4, golden)
	pa := f.planes[0]
	thinBlock(f, pa.full[0], 12, golden)
	at := f.Array().DrainTime()
	busy := f.planes[f.order[f.cursor]]
	if busy == pa {
		busy = f.planes[f.order[(f.cursor+1)%len(f.order)]]
	}
	if _, err := f.Array().Erase(busy.addr, busy.free[0], at); err != nil {
		t.Fatal(err)
	}
	got := recordBookings(f)
	end, err := f.collectPlane(pa, at)
	if err != nil {
		t.Fatal(err)
	}
	var erase resBooking
	var last, chained sim.Time // the latest program end, and the last one booked
	for _, b := range *got {
		switch b.label {
		case "erase":
			erase = b
		case "program":
			last, chained = max(last, b.end), b.end
		}
	}
	if chained >= last {
		t.Fatalf("the last copy booked ended at %v, the latest at %v: the busy plane delayed nothing", chained, last)
	}
	if end != erase.end || erase.start < last {
		t.Errorf("victim erased over [%v,%v), pass ended at %v: want the erase after the latest copy's program end %v",
			erase.start, erase.end, end, last)
	}
	checkReadBack(t, f, golden)
}

// TestGCRelocationPassesStartTogether runs a write that needs two GC
// passes on its plane. Both passes start at the write's request instant:
// the second victim is read before the first one's erase ends, and the
// write waits for the later pass.
func TestGCRelocationPassesStartTogether(t *testing.T) {
	f := newFTL()
	golden := map[uint64]byte{}
	pa := f.planes[0]
	// Leave plane 0 three free blocks, then thin two of its full blocks.
	fillPlane0(t, f, 0, f.geo.BlocksPerPlane-3, golden)
	thinBlock(f, pa.full[0], 8, golden)
	thinBlock(f, pa.full[1], 8, golden)
	// Relocation writes open blocks without collecting: two of them leave
	// the plane one free block.
	next := uint64(f.geo.BlocksPerPlane) * f.perBlock
	for range 2 * f.perBlock {
		if _, err := f.writeTo(pa, next, page(f, byte(next)), 0, false); err != nil {
			t.Fatal(err)
		}
		golden[next] = byte(next)
		next++
	}
	if len(pa.free) != 1 || pa.active >= 0 {
		t.Fatalf("plane 0 has %d free blocks and active block %d, want 1 and none", len(pa.free), pa.active)
	}
	checkReadBack(t, f, golden)
	sink := telemetry.New()
	tr := sink.EnableTrace()
	f.SetTelemetry(sink)
	got := recordBookings(f)
	at := f.Array().DrainTime()
	runs := f.Stats().GCRuns
	done, err := f.Place(Layout{Fixed: true}, []uint64{next}, [][]byte{page(f, byte(next))}, at)
	if err != nil {
		t.Fatal(err)
	}
	golden[next] = byte(next)
	if n := f.Stats().GCRuns - runs; n != 2 {
		t.Fatalf("the write ran %d GC passes, want 2", n)
	}
	var starts []float64
	for _, ev := range tr.Events() {
		if ev.Name == "gc" {
			starts = append(starts, ev.TS)
		}
	}
	if want := float64(at) / 1e3; len(starts) != 2 || starts[0] != want || starts[1] != want {
		t.Fatalf("GC passes started at %v µs, want both at the request instant %v µs", starts, want)
	}
	var erases []resBooking
	var secondRead resBooking
	for _, b := range *got {
		switch {
		case b.res != "plane-0":
		case b.label == "erase":
			erases = append(erases, b)
		case b.label == "sense" && len(erases) == 1 && secondRead.label == "":
			secondRead = b
		}
	}
	if len(erases) != 2 || secondRead.label == "" {
		t.Fatalf("plane 0 booked %d erases, second pass read %+v", len(erases), secondRead)
	}
	if secondRead.start >= erases[0].end {
		t.Errorf("second pass read its victim from %v, after the first erase ended at %v", secondRead.start, erases[0].end)
	}
	if done < erases[0].end || done < erases[1].end {
		t.Errorf("write done at %v, before its GC erases ended at %v and %v", done, erases[0].end, erases[1].end)
	}
	checkReadBack(t, f, golden)
}

// TestGCRelocationPowerCut cuts the power on the third program of a
// pipelined relocation. The collection returns the cut, the victim goes
// back on the full list with the pages it still holds, and every page
// reads back its last bytes.
func TestGCRelocationPowerCut(t *testing.T) {
	f := newFTL()
	golden := map[uint64]byte{}
	fillPlane0(t, f, 0, 4, golden)
	pa := f.planes[0]
	victim := pa.full[0]
	thinBlock(f, victim, 12, golden)
	eng, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{
		{Type: faults.RulePowerCut, Point: persist.PointMidProgram, AfterN: 3},
	}}, f.geo)
	if err != nil {
		t.Fatal(err)
	}
	f.Array().SetFaultInjector(eng)
	_, err = f.collectPlane(pa, f.Array().DrainTime())
	if !flash.IsPowerCut(err) {
		t.Fatalf("collection returned %v, want the power cut", err)
	}
	if !slices.Contains(pa.full, victim) {
		t.Fatalf("victim %d is not back on the full list %v", victim, pa.full)
	}
	if st := f.Stats(); st.GCPagesMoved != 2 || pa.valid[victim] != 10 {
		t.Fatalf("moved %d pages, victim keeps %d: want 2 and 10", st.GCPagesMoved, pa.valid[victim])
	}
	f.Array().SetFaultInjector(nil)
	checkReadBack(t, f, golden)
}
