package latch

import (
	"math/rand"
	"slices"
	"testing"
)

// chainOps are the ops with a chained program of their own; NAND, NOR
// and XNOR run their base's.
var chainOps = []Op{OpAnd, OpOr, OpXor}

// TestChainUnrollsValidate pins the chain table: every program unrolled
// for k from 2 to MaxChain validates, one more operand overflows
// MaxSteps, the two-operand chain is the LF-LSB program, and MaxChain
// keeps the planner's split points.
func TestChainUnrollsValidate(t *testing.T) {
	want := map[Op]int{
		OpAnd: 31, OpNand: 31, OpOr: 16, OpNor: 16, OpXor: 8, OpXnor: 8,
		OpNotLSB: 0, OpNotMSB: 0, numOps: 0,
	}
	for op, max := range want {
		if got := MaxChain(op); got != max {
			t.Errorf("MaxChain(%v) = %d, want %d", op, got, max)
		}
	}
	for _, op := range chainOps {
		c := chains[op]
		for k := 2; k <= MaxChain(op); k++ {
			if err := c.unroll(op, k).Validate(); err != nil {
				t.Fatalf("%v chain of %d: %v", op, k, err)
			}
		}
		if over := c.unroll(op, MaxChain(op)+1); len(over.Steps) <= MaxSteps {
			t.Errorf("%v chain of %d has %d steps: MaxChain is not the longest program", op, MaxChain(op)+1, len(over.Steps))
		}
		if got := c.unroll(op, 2).Steps; !slices.Equal(got, lsbSeqs[op].Steps) {
			t.Errorf("%v chain of 2 = %v, want the LF-LSB program", op, got)
		}
	}
}

// TestChainComputesFold runs the unrolled AND and OR chains on the
// circuit over random cells at every legal k, and XOR at k=2: each must
// leave the fold of the operands' LSB bits at OUT. Longer XOR chains fold
// against register loads from the controller buffer, which the circuit
// does not model.
func TestChainComputesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range chainOps {
		maxK := MaxChain(op)
		if op == OpXor {
			maxK = 2
		}
		for k := 2; k <= maxK; k++ {
			seq := chains[op].unroll(op, k)
			for trial := 0; trial < 64; trial++ {
				cells := make(CellSensor, k)
				want := false
				for i := range cells {
					cells[i] = State(rng.Intn(4))
					if i == 0 {
						want = cells[i].LSB()
					} else {
						want = op.Eval(want, cells[i].LSB())
					}
				}
				if got := NewCircuit(cells).Run(seq); got != want {
					t.Fatalf("%v chain of %d over %v: OUT=%v, want %v", op, k, cells, got, want)
				}
			}
		}
	}
}

// TestPriceChain pins the chain prices: a k-operand AND, OR, NAND or NOR
// chain senses k times with no register loads, an XOR or XNOR chain 2k
// times with 2(k-2) loads, at every k (past MaxChain the body loops); a
// NOT and a chain of fewer than two operands are refused.
func TestPriceChain(t *testing.T) {
	for _, op := range Ops {
		for k := 0; k <= 64; k++ {
			c, err := Price(SenseChainLSB, op, k)
			wantS, wantL, ok := k, 0, k >= 2
			switch op {
			case OpXor, OpXnor:
				wantS, wantL = 2*k, 2*(k-2)
			case OpNotLSB, OpNotMSB:
				ok = false
			}
			if ok != (err == nil) {
				t.Fatalf("chain of %d %v: err = %v, want refusal %v", k, op, err, !ok)
			}
			if ok && (c.SROs != wantS || c.Loads != wantL) {
				t.Fatalf("chain of %d %v = %d SROs, %d loads; want %d, %d", k, op, c.SROs, c.Loads, wantS, wantL)
			}
		}
	}
}
