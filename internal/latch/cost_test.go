package latch

import "testing"

// SROs counts the sensing steps in the sequence, independently of the
// cost lookup. A multi-wordline sense counts as one: it is one read
// operation regardless of how many wordlines it selects.
func (s Sequence) SROs() int {
	n := 0
	for _, st := range s.Steps {
		if st.Kind == StepSense || st.Kind == StepSenseMulti {
			n++
		}
	}
	return n
}

// sensesOf counts the steps of a program that select wordline wl: a
// sense naming it, or a multi-wordline sense spanning it.
func sensesOf(seq Sequence, wl int) int {
	n := 0
	for _, st := range seq.Steps {
		switch {
		case st.Kind == StepSense && st.WL == wl,
			st.Kind == StepSenseMulti && wl >= st.WL && wl < st.WL+st.WLCount:
			n++
		}
	}
	return n
}

// pricedSense is one (kind, op, k) the lookup prices, the program that
// runs it unrolled, and the SROs and register loads the array charged
// for it before the lookup existed.
type pricedSense struct {
	kind        SenseKind
	op          Op
	k           int
	program     Sequence
	sros, loads int
}

// pricedSenses lists every sense the tables hold: each fixed program per
// op, LSB chains of 2 to MaxChain+2 operands (past MaxChain the body
// loops, so the program is unrolled past MaxSteps), multi-wordline senses
// of 2 to MaxMWSOperands wordlines, alone and as a chained chunk, and the
// TLC three-operand ops.
func pricedSenses() []pricedSense {
	pairSROs := [numOps]int{OpAnd: 1, OpOr: 2, OpXnor: 4, OpNand: 1, OpNor: 2, OpXor: 4, OpNotLSB: 1, OpNotMSB: 2}
	locFreeSROs := [numOps]int{OpAnd: 3, OpOr: 3, OpXnor: 6, OpNand: 3, OpNor: 3, OpXor: 6, OpNotLSB: 1, OpNotMSB: 2}
	lsbSROs := [numOps]int{OpAnd: 2, OpOr: 2, OpXnor: 4, OpNand: 2, OpNor: 2, OpXor: 4, OpNotLSB: 1, OpNotMSB: 1}
	var out []pricedSense
	for _, op := range Ops {
		out = append(out,
			pricedSense{SensePair, op, 1, basicSeqs[op], pairSROs[op], 0},
			pricedSense{SenseLocFree, op, 2, locFreeSeqs[op], locFreeSROs[op], 0},
			pricedSense{SenseLocFreeLSB, op, 2, lsbSeqs[op], lsbSROs[op], 0})
		base, _ := op.Base()
		if c := chainOf(op); c != nil {
			for k := 2; k <= MaxChain(op)+2; k++ {
				sros, loads := k, 0
				if base == OpXor {
					sros, loads = 2*k, 2*(k-2)
				}
				out = append(out, pricedSense{SenseChainLSB, op, k, c.unroll(base, k), sros, loads})
			}
		}
		if MWSComputable(op) {
			for k := 2; k <= MaxMWSOperands; k++ {
				for _, kind := range []SenseKind{SenseMWS, SenseChainMWS} {
					out = append(out, pricedSense{kind, op, k, forOpMWS(base, k), 1, 0})
				}
			}
		}
	}
	tlcSROs := [...]int{TLCAnd3: 1, TLCOr3: 2, TLCNand3: 1, TLCNor3: 2}
	for o, seq := range tlcSeqs {
		out = append(out, pricedSense{SenseTLC, TLCOp3(o).Op(), 1, seq, tlcSROs[o], 0})
	}
	return out
}

// TestPriceMatchesPrograms pins the cost lookup against the programs: for
// every sense the tables hold, the senses Price charges each operand
// wordline are the steps of the unrolled program that select it (never
// negative), and its SROs and register loads are the prices the array
// has always charged.
func TestPriceMatchesPrograms(t *testing.T) {
	for _, s := range pricedSenses() {
		c, err := Price(s.kind, s.op, s.k)
		if err != nil {
			t.Fatalf("Price(%v, %v, %d): %v", s.kind, s.op, s.k, err)
		}
		if c.SROs != s.sros || c.Loads != s.loads {
			t.Errorf("Price(%v, %v, %d) = %d SROs, %d loads; want %d, %d", s.kind, s.op, s.k, c.SROs, c.Loads, s.sros, s.loads)
		}
		if n := s.program.SROs(); n != c.SROs {
			t.Errorf("Price(%v, %v, %d) = %d SROs, its program %s senses %d times", s.kind, s.op, s.k, c.SROs, s.program.Name, n)
		}
		for i := 0; i < s.k; i++ {
			want := sensesOf(s.program, i)
			if got := c.Reads(i); got != want || got < 0 {
				t.Errorf("Price(%v, %v, %d) charges wordline %d %d senses, its program %s selects it %d times",
					s.kind, s.op, s.k, i, got, s.program.Name, want)
			}
		}
		if wantMWS := s.kind == SenseMWS || s.kind == SenseChainMWS; wantMWS != (c.MWS == s.k) || (!wantMWS && c.MWS != 0) {
			t.Errorf("Price(%v, %v, %d) selects %d wordlines in one sense", s.kind, s.op, s.k, c.MWS)
		}
	}
}

// TestPriceRefusals pins what the lookup refuses: a one-program kind at
// another wordline count, an op a kind has no program for, a chain or
// multi-wordline sense of fewer than two wordlines or past the sense
// margin, and an unknown kind or op.
func TestPriceRefusals(t *testing.T) {
	for _, c := range []struct {
		kind SenseKind
		op   Op
		k    int
	}{
		{SensePair, OpAnd, 2}, {SenseLocFree, OpAnd, 1}, {SenseLocFreeLSB, OpXor, 3}, {SenseTLC, OpAnd, 3},
		{SenseTLC, OpXor, 1}, {SenseTLC, OpNotLSB, 1},
		{SenseChainLSB, OpNotLSB, 3}, {SenseChainLSB, OpAnd, 1}, {SenseChainLSB, OpXor, 0},
		{SenseMWS, OpXor, 2}, {SenseMWS, OpAnd, 1}, {SenseMWS, OpOr, MaxMWSOperands + 1}, {SenseMWS, OpAnd, 40},
		{SenseChainMWS, OpXnor, 2}, {SenseChainMWS, OpNand, -1},
		{numKinds, OpAnd, 1}, {SensePair, numOps, 1},
	} {
		if _, err := Price(c.kind, c.op, c.k); err == nil {
			t.Errorf("Price(%v, %v, %d) priced, want a refusal", c.kind, c.op, c.k)
		}
	}
}

// TestPriceAllocatesNothing pins that pricing a sense, the array's hot
// path, allocates nothing.
func TestPriceAllocatesNothing(t *testing.T) {
	senses := pricedSenses()
	if allocs := testing.AllocsPerRun(10, func() {
		for _, s := range senses {
			if _, err := Price(s.kind, s.op, s.k); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("Price allocates %v times", allocs)
	}
}
