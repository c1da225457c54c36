package latch

import "testing"

func TestLocFreeLSBAllOpsAllCombinations(t *testing.T) {
	// Exhaustive over both cells' four states: M is the LSB of the
	// wordline-0 cell, N the LSB of the wordline-1 cell; the other bits
	// of each cell must not affect the result.
	for _, op := range Ops {
		seq := lsbSeqs[op]
		for s0 := E; s0 <= S3; s0++ {
			for s1 := E; s1 <= S3; s1++ {
				c := NewCircuit(CellSensor{s0, s1})
				got := c.Run(seq)
				m, n := s0.LSB(), s1.LSB()
				var want bool
				switch op {
				case OpNotLSB:
					want = !m
				case OpNotMSB:
					want = !n
				default:
					want = op.Eval(n, m)
				}
				if got != want {
					t.Errorf("%v lsb-locfree M=%v N=%v (states %v,%v): OUT=%v, want %v",
						op, m, n, s0, s1, got, want)
				}
			}
		}
	}
}

func TestLocFreeLSBSROCounts(t *testing.T) {
	// LSB-resident operands each cost one sense: AND/OR/NAND/NOR take 2
	// SROs, the XOR family 4, NOT 1. Always at least as many senses as
	// basic ParaBit (Fig. 15's trade-off) but fewer than the MSB-layout
	// location-free sequences.
	want := map[Op]int{
		OpAnd: 2, OpOr: 2, OpNand: 2, OpNor: 2,
		OpXor: 4, OpXnor: 4, OpNotLSB: 1, OpNotMSB: 1,
	}
	for op, n := range want {
		got := lsbSeqs[op].SROs()
		if got != n {
			t.Errorf("%v: %d SROs, want %d", op, got, n)
		}
		if basic := ForOp(op).SROs(); got < basic && op != OpNotMSB {
			t.Errorf("%v: LSB locfree (%d SROs) cheaper than basic (%d)", op, got, basic)
		}
	}
}

func TestLocFreeLSBInverterUsage(t *testing.T) {
	// XOR/XNOR/NAND/NOR need the added inverter; AND/OR/NOT do not.
	wantInv := map[Op]bool{
		OpAnd: false, OpOr: false, OpNotLSB: false, OpNotMSB: false,
		OpXor: true, OpXnor: true, OpNand: true, OpNor: true,
	}
	for op, want := range wantInv {
		got := false
		for _, st := range lsbSeqs[op].Steps {
			if st.Kind == StepSense && st.Inverted {
				got = true
			}
		}
		if got != want {
			t.Errorf("%v: inverter use = %v, want %v", op, got, want)
		}
	}
}
