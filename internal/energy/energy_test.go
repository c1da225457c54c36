package energy

import (
	"math"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/latch"
)

func TestWorstCaseParaBitIsTwiceMSBRead(t *testing.T) {
	// Fig. 16: "In the worst case, it is about 2x of that of the baseline
	// MSB read" — the 4-SRO XOR/XNOR against the 2-SRO MSB read.
	m := DefaultModel()
	for _, op := range []latch.Op{latch.OpXor, latch.OpXnor} {
		ratio := m.ParaBitEnergy(op) / m.readEnergy(flash.MSBPage)
		if ratio < 1.5 || ratio > 2.0 {
			t.Errorf("%v: ParaBit/MSB-read = %.2f, want ≈2 (at most 2)", op, ratio)
		}
	}
}

func TestReAllocWorstCaseNearPaperAnchor(t *testing.T) {
	// Fig. 16: ReAlloc "consumes up to 2.65% more energy than that of
	// baseline write operation" — normalized against the two-page program
	// it performs.
	m := DefaultModel()
	worst := 0.0
	for _, op := range latch.Ops {
		over := m.ReAllocEnergy(op)/(2*m.WriteEnergy()) - 1
		if over > worst {
			worst = over
		}
	}
	if math.Abs(worst-0.0265) > 0.01 {
		t.Errorf("ReAlloc worst-case overhead = %.2f%%, want ≈2.65%%", worst*100)
	}
}

func TestSchemeOrdering(t *testing.T) {
	// For every op: ParaBit cheapest (or tied with LocFree), ReAlloc most
	// expensive — Fig. 16's qualitative content.
	m := DefaultModel()
	for _, op := range latch.Ops {
		pb, lf, ra := m.ParaBitEnergy(op), m.LocFreeEnergy(op), m.ReAllocEnergy(op)
		if ra <= pb || ra <= lf {
			t.Errorf("%v: ReAlloc (%.3g J) not the most expensive (pb %.3g, lf %.3g)", op, ra, pb, lf)
		}
		if pb > lf*1.01 && op != latch.OpNotMSB {
			// LocFree senses at least as much as basic ParaBit.
			t.Errorf("%v: ParaBit (%.3g J) above LocFree (%.3g J)", op, pb, lf)
		}
	}
}

func TestEnergyScalesWithSROs(t *testing.T) {
	m := DefaultModel()
	and := m.ParaBitEnergy(latch.OpAnd) - m.TransferEnergy()
	xor := m.ParaBitEnergy(latch.OpXor) - m.TransferEnergy()
	if math.Abs(xor/and-4) > 1e-9 {
		t.Errorf("XOR/AND sensing energy = %.3f, want 4 (4 vs 1 SRO)", xor/and)
	}
}

func TestFig16Rows(t *testing.T) {
	rows := DefaultModel().Fig16()
	if len(rows) != len(latch.Ops) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ParaBitVsRead <= 0 || r.LocFreeVsRead <= 0 || r.ReAllocVsWrite <= 0 {
			t.Errorf("%v: non-positive normalized energy %+v", r.Op, r)
		}
		if r.ParaBitVsRead > 2.01 {
			t.Errorf("%v: ParaBit normalized %.2f exceeds the paper's 2x bound", r.Op, r.ParaBitVsRead)
		}
		if r.ReAllocVsWrite > 1.03 {
			t.Errorf("%v: ReAlloc normalized %.3f exceeds 1.0265-ish bound", r.Op, r.ReAllocVsWrite)
		}
	}
}

func TestBaselineRelations(t *testing.T) {
	m := DefaultModel()
	if m.readEnergy(flash.MSBPage) <= m.readEnergy(flash.LSBPage) {
		t.Error("MSB read should cost more than LSB read")
	}
	if m.WriteEnergy() <= m.readEnergy(flash.MSBPage) {
		t.Error("program should dwarf a read")
	}
	if m.EraseEnergy() <= m.WriteEnergy() {
		t.Error("erase should cost more than a single program")
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	p := DefaultParams()
	p.IRead = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params accepted")
		}
	}()
	NewModel(p, DefaultModel().tm, 8192)
}

// TestBaselineReadsChargeTheirPrograms pins the Fig. 16 read normalisers
// to the read programs: each baseline MLC page read draws read current
// for exactly its program's senses (latch.ReadCost), as many SROs'
// worth as SenseEnergy prices, plus one page transfer.
func TestBaselineReadsChargeTheirPrograms(t *testing.T) {
	m := DefaultModel()
	for _, kind := range []flash.PageKind{flash.LSBPage, flash.MSBPage} {
		c := latch.ReadCost(2, int(kind), 0)
		sense := m.phase(m.p.IRead, m.tm.SenseLatency(c, m.pageSize))
		if got := m.readEnergy(kind); got != sense+m.TransferEnergy() {
			t.Errorf("%v read = %.6g J, its program's senses and transfer %.6g J", kind, got, sense+m.TransferEnergy())
		}
		if got := m.SenseEnergy(c.SROs); math.Abs(got-sense) > 1e-18 {
			t.Errorf("%v read senses %.6g J, SenseEnergy(%d) %.6g J", kind, sense, c.SROs, got)
		}
	}
}
