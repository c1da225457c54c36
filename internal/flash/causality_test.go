package flash

import (
	"testing"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// booking is one reservation an observed plane received.
type booking struct {
	label      string
	start, end sim.Time
}

// observePlanes records every reservation on the array's planes, by
// resource name ("plane-0", ...).
func observePlanes(a *Array) map[string][]booking {
	got := map[string][]booking{}
	a.InstrumentResources(func(name string) sim.ReserveObserver {
		return func(label string, start, end sim.Time) {
			got[name] = append(got[name], booking{label, start, end})
		}
	})
	return got
}

// lastOf returns the latest reservation with the given label on plane 0.
func lastOf(t *testing.T, got map[string][]booking, label string) booking {
	t.Helper()
	bs := got["plane-0"]
	for i := len(bs) - 1; i >= 0; i-- {
		if bs[i].label == label {
			return bs[i]
		}
	}
	t.Fatalf("no %q reservation on plane-0 in %v", label, bs)
	return booking{}
}

// Resources order work by virtual time, so a sense issued before a
// program booked for a later instant would fit in the idle gap ahead of
// it. A read, and every bitwise sense, of the block waits for the program
// instead.
func TestSenseWaitsForBlockPrograms(t *testing.T) {
	a := testArray()
	got := observePlanes(a)
	wl := WordlineAddr{Block: 3}
	lsb, msb := PageAddr{WordlineAddr: wl, Kind: LSBPage}, PageAddr{WordlineAddr: wl, Kind: MSBPage}
	const issued = sim.Time(10 * sim.Millisecond)
	if _, err := a.Program(lsb, fillPattern(a.geo.PageSize, 1), issued); err != nil {
		t.Fatal(err)
	}
	programmed, err := a.Program(msb, fillPattern(a.geo.PageSize, 2), issued)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(lsb, 0); err != nil {
		t.Fatal(err)
	}
	if s := lastOf(t, got, "sense"); s.start < programmed {
		t.Fatalf("read sensed at %v, before its block's program ended at %v", s.start, programmed)
	}
	if _, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpAnd, WLs: []WordlineAddr{wl}}, 0); err != nil {
		t.Fatal(err)
	}
	if s := lastOf(t, got, "bitwise"); s.start < programmed {
		t.Fatalf("bitwise sense at %v, before its operands' program ended at %v", s.start, programmed)
	}
	// A sense of another block fills the idle gap before the programs.
	if _, _, err := a.Read(PageAddr{WordlineAddr: WordlineAddr{Block: 4}}, 0); err != nil {
		t.Fatal(err)
	}
	if s := lastOf(t, got, "sense"); s.start != 0 {
		t.Fatalf("unrelated read sensed at %v, want 0", s.start)
	}
}

// An erase issued before a sense of its block that is booked for a later
// instant must not wipe the block ahead of that sense.
func TestEraseWaitsForBookedSense(t *testing.T) {
	a := testArray()
	got := observePlanes(a)
	p := PageAddr{WordlineAddr: WordlineAddr{Block: 5}}
	if _, err := a.Program(p, fillPattern(a.geo.PageSize, 3), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(p, sim.Time(20*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	sensed := lastOf(t, got, "sense").end
	if _, err := a.Erase(p.PlaneAddr, p.Block, 0); err != nil {
		t.Fatal(err)
	}
	if e := lastOf(t, got, "erase"); e.start < sensed {
		t.Fatalf("erase started at %v, before the booked sense ended at %v", e.start, sensed)
	}
}

// A program into a block whose erase is booked for a later instant waits
// for the erase, and the block's next program waits for that one.
func TestProgramWaitsForBookedErase(t *testing.T) {
	a := testArray()
	got := observePlanes(a)
	wl := WordlineAddr{Block: 6}
	erased, err := a.Erase(wl.PlaneAddr, wl.Block, sim.Time(20*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	lsbDone, err := a.Program(PageAddr{WordlineAddr: wl, Kind: LSBPage}, fillPattern(a.geo.PageSize, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := lastOf(t, got, "program"); p.start < erased {
		t.Fatalf("program started at %v, before the block's erase ended at %v", p.start, erased)
	}
	if _, err := a.Program(PageAddr{WordlineAddr: wl, Kind: MSBPage}, fillPattern(a.geo.PageSize, 5), 0); err != nil {
		t.Fatal(err)
	}
	if p := lastOf(t, got, "program"); p.start < lsbDone {
		t.Fatalf("MSB program started at %v, before the LSB program ended at %v", p.start, lsbDone)
	}
}

// ResetTiming forgets when stored pages were programmed: a read after it
// starts at t=0 however late the program ran.
func TestResetTimingClearsBlockStamps(t *testing.T) {
	a := testArray()
	p := PageAddr{WordlineAddr: WordlineAddr{Block: 7}}
	if _, err := a.Program(p, fillPattern(a.geo.PageSize, 6), sim.Time(50*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(p, sim.Time(60*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	a.ResetTiming()
	got := observePlanes(a)
	if _, _, err := a.Read(p, 0); err != nil {
		t.Fatal(err)
	}
	s := lastOf(t, got, "sense")
	if s.start != 0 || s.end != sim.Time(readLatency(a, LSBPage, 0)) {
		t.Fatalf("read after ResetTiming sensed [%v,%v), want from 0", s.start, s.end)
	}
	if _, err := a.Erase(p.PlaneAddr, p.Block, s.end); err != nil {
		t.Fatal(err)
	}
	if e := lastOf(t, got, "erase"); e.start != s.end {
		t.Fatalf("erase after ResetTiming started at %v, want %v", e.start, s.end)
	}
}

// A location-free NOT-LSB sense selects two wordlines but reads only the
// second: its program charges the first 0 SROs. An erase of the first
// block must not wait for that sense, an erase of the second must.
func TestEraseSkipsSenseThatNeverReadIt(t *testing.T) {
	a := testArray()
	got := observePlanes(a)
	unread, read := WordlineAddr{Block: 8}, WordlineAddr{Block: 9}
	for i, w := range []WordlineAddr{unread, read} {
		if _, err := a.Program(PageAddr{WordlineAddr: w}, fillPattern(a.geo.PageSize, byte(7+i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if c, err := latch.Price(latch.SenseLocFree, latch.OpNotLSB, 2); err != nil || c.Reads(0) != 0 || c.Reads(1) == 0 {
		t.Fatalf("location-free NOT-LSB charges its wordlines %v %v (%v), want 0 and more", c.Reads(0), c.Reads(1), err)
	}
	const issued = sim.Time(20 * sim.Millisecond)
	if _, err := a.Sense(Sense{Kind: latch.SenseLocFree, Op: latch.OpNotLSB, WLs: []WordlineAddr{unread, read}}, issued); err != nil {
		t.Fatal(err)
	}
	sense := lastOf(t, got, "bitwise")
	if a.ReadCount(unread.PlaneAddr, unread.Block) != 0 {
		t.Fatalf("block %d absorbed %d SROs from a sense that never read it", unread.Block, a.ReadCount(unread.PlaneAddr, unread.Block))
	}
	if _, err := a.Erase(unread.PlaneAddr, unread.Block, 0); err != nil {
		t.Fatal(err)
	}
	if e := lastOf(t, got, "erase"); e.end > sense.start {
		t.Fatalf("erase of the unread block ran [%v,%v), waiting for a sense booked at [%v,%v) that never read it",
			e.start, e.end, sense.start, sense.end)
	}
	if _, err := a.Erase(read.PlaneAddr, read.Block, 0); err != nil {
		t.Fatal(err)
	}
	if e := lastOf(t, got, "erase"); e.start < sense.end {
		t.Fatalf("erase of the read block started at %v, before the sense of it ended at %v", e.start, sense.end)
	}
}
