package flash

import (
	"errors"
	"testing"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

func tlcArray() *Array { return NewArray(SmallTLC(), TLCTiming()) }

func TestTLCGeometry(t *testing.T) {
	g := SmallTLC()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.PagesPerBlock() != 3*g.WordlinesPerBlock {
		t.Errorf("pages per block = %d", g.PagesPerBlock())
	}
	if g.ReadSROs(LSBPage) != 1 || g.ReadSROs(MSBPage) != 2 || g.ReadSROs(TopPage) != 4 {
		t.Error("TLC read SRO split should be 1-2-4")
	}
	// PPN round-trips with three kinds.
	for _, kind := range []PageKind{LSBPage, MSBPage, TopPage} {
		p := PageAddr{WordlineAddr{Block: 3, WL: 7}, kind}
		if g.PageAt(g.PPN(p)) != p {
			t.Errorf("PPN round trip failed for kind %v", kind)
		}
	}
	bad := Default()
	bad.CellBits = 4
	if bad.Validate() == nil {
		t.Error("QLC accepted (unsupported)")
	}
}

func TestTLCProgramOrder(t *testing.T) {
	a := tlcArray()
	wl := WordlineAddr{Block: 1}
	page := make([]byte, a.Geometry().PageSize)
	// TOP before CSB: rejected.
	if _, err := a.Program(PageAddr{wl, TopPage}, page, 0); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("TOP-first: %v", err)
	}
	if _, err := a.Program(PageAddr{wl, LSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, TopPage}, page, 0); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("TOP before CSB: %v", err)
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, TopPage}, page, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTLCKindRangeChecked(t *testing.T) {
	// TopPage is invalid on MLC arrays.
	a := testArray()
	page := make([]byte, a.Geometry().PageSize)
	if _, err := a.Program(PageAddr{WordlineAddr{}, TopPage}, page, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("TOP on MLC: %v", err)
	}
	if _, _, err := a.Read(PageAddr{WordlineAddr{}, TopPage}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("TOP read on MLC: %v", err)
	}
}

func TestTLCBitwiseAllOpsCorrect(t *testing.T) {
	a := tlcArray()
	n := a.Geometry().PageSize
	lsb, csb, top := fillPattern(n, 0x5A), fillPattern(n, 0xC3), fillPattern(n, 0x0F)
	wl := WordlineAddr{Block: 2, WL: 4}
	for kind, data := range map[PageKind][]byte{LSBPage: lsb} {
		if _, err := a.Program(PageAddr{wl, kind}, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, csb, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, TopPage}, top, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range []latch.TLCOp3{latch.TLCAnd3, latch.TLCOr3, latch.TLCNand3, latch.TLCNor3} {
		res, err := a.Sense(Sense{Kind: latch.SenseTLC, Op3: op, WLs: []WordlineAddr{wl}}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got := res.Data
		for i := range got {
			for b := 0; b < 8; b++ {
				want := op.Eval(lsb[i]&(1<<b) != 0, csb[i]&(1<<b) != 0, top[i]&(1<<b) != 0)
				if (got[i]&(1<<b) != 0) != want {
					t.Fatalf("%v bit %d.%d wrong", op, i, b)
				}
			}
		}
	}
}

func TestTLCBitwiseTiming(t *testing.T) {
	a := tlcArray()
	wl := WordlineAddr{}
	res, err := a.Sense(Sense{Kind: latch.SenseTLC, Op3: latch.TLCAnd3, WLs: []WordlineAddr{wl}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ready != sim.Time(60*sim.Microsecond) {
		t.Errorf("AND3 ready at %v, want 60µs (1 TLC sense)", res.Ready)
	}
	a.ResetTiming()
	res, _ = a.Sense(Sense{Kind: latch.SenseTLC, Op3: latch.TLCOr3, WLs: []WordlineAddr{wl}}, 0)
	if res.Ready != sim.Time(120*sim.Microsecond) {
		t.Errorf("OR3 ready at %v, want 120µs (2 senses)", res.Ready)
	}
}

func TestCellModeGuards(t *testing.T) {
	mlc := testArray()
	if _, err := mlc.Sense(Sense{Kind: latch.SenseTLC, Op3: latch.TLCAnd3, WLs: []WordlineAddr{{}}}, 0); !errors.Is(err, ErrCellMode) {
		t.Fatalf("TLC op on MLC: %v", err)
	}
	tlc := tlcArray()
	if _, err := tlc.Sense(Sense{Kind: latch.SensePair, Op: latch.OpAnd, WLs: []WordlineAddr{{}}}, 0); !errors.Is(err, ErrCellMode) {
		t.Fatalf("MLC op on TLC: %v", err)
	}
	if _, err := tlc.Sense(Sense{Kind: latch.SenseLocFree, Op: latch.OpAnd, WLs: []WordlineAddr{{}, {WL: 1}}}, 0); !errors.Is(err, ErrCellMode) {
		t.Fatalf("MLC locfree on TLC: %v", err)
	}
	if _, err := tlc.Sense(Sense{Kind: latch.SenseChainLSB, Op: latch.OpAnd, WLs: []WordlineAddr{{}, {WL: 1}}}, 0); !errors.Is(err, ErrCellMode) {
		t.Fatalf("MLC chain on TLC: %v", err)
	}
}

func TestTLCReadLatencies(t *testing.T) {
	a := tlcArray()
	tm := a.Timing()
	page := make([]byte, a.Geometry().PageSize)
	wl := WordlineAddr{Block: 3}
	for _, kind := range []PageKind{LSBPage, MSBPage, TopPage} {
		if _, err := a.Program(PageAddr{wl, kind}, page, 0); err != nil {
			t.Fatal(err)
		}
	}
	a.ResetTiming()
	wantSROs := map[PageKind]int{LSBPage: 1, MSBPage: 2, TopPage: 4}
	for kind, sros := range wantSROs {
		a.ResetTiming()
		res, err := a.ReadSense(PageAddr{wl, kind}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Time(sim.Duration(sros) * tm.SenseSRO)
		if res.Ready != want {
			t.Errorf("%v read ready at %v, want %v", kind, res.Ready, want)
		}
	}
}
