package latch

import (
	"fmt"
	"slices"
)

// Chained location-free programs (paper §4.2 over the all-LSB layout of
// §5.5). A reduction of k aligned LSB operands on one plane runs as one
// control program: a prefix folds the first two operands (wordlines 0
// and 1, the LF-LSB program's shape), a body runs once per further
// operand, and a suffix ends the program:
//
//   - AND accumulates in L1: each further operand is one more sense and
//     M2, and the suffix transfers the result;
//   - OR merges through L2: each further operand re-initializes L1, is
//     sensed and transferred;
//   - XOR cannot accumulate in the latches: each further operand reloads
//     the partial result P and its complement from the controller buffer
//     (two register loads, not senses) and folds (P AND NOT x) OR
//     (NOT P AND x) with one normal and one inverted sense.
//
// NAND, NOR and XNOR run their base's chain (Op.Base) and complement the
// result on the final transfer, at the same cost. A body leaves
// Validate's state as it found it (initialized, sensed since the last
// initialization), so validating the programs unrolled at k=2 and k=3
// covers every k up to MaxChain. A longer chain runs as its body looped
// and is priced alike: MaxChain bounds one program, not the fold.
type chain struct {
	// prefix, body and suffix are the program's three parts. The body's
	// senses name wordline 0; unrolling puts its i-th run on operand
	// wordline i+2.
	prefix, body, suffix []Step
	// bodyLoads counts the controller-buffer register loads one body run
	// takes.
	bodyLoads int
	// ends and each are the costs of the prefix and suffix together and
	// of one body run, counted from the programs at initialization.
	ends, each Cost
}

// chains is the chained-program table, one entry per base op, validated
// once at package initialization.
var chains = [numOps]*chain{
	OpAnd: {
		prefix: []Step{init0, senseWL(0, VRead2), m2, senseWL(1, VRead2), m2},
		body:   []Step{senseWL(0, VRead2), m2},
		suffix: []Step{m3},
	},
	OpOr: {
		prefix: lsbOr.Steps,
		body:   []Step{reinit, senseWL(0, VRead2), m2, m3},
	},
	OpXor: {
		prefix:    lsbXor.Steps,
		body:      []Step{reinit, senseWL(0, VRead2), m2, m3, reinit, senseInv(0, VRead2), m2, m3},
		bodyLoads: 2,
	},
}

func init() {
	for op, c := range chains {
		if c == nil {
			continue
		}
		for k := 2; k <= 3; k++ {
			if err := c.unroll(Op(op), k).Validate(); err != nil {
				panic(err)
			}
		}
		c.ends, c.each = costOf(slices.Concat(c.prefix, c.suffix)), costOf(c.body)
	}
}

// unroll spells out the program folding k operands on wordlines 0..k-1.
func (c *chain) unroll(op Op, k int) Sequence {
	steps := slices.Clone(c.prefix)
	for wl := 2; wl < k; wl++ {
		for _, st := range c.body {
			if st.Kind == StepSense {
				st.WL = wl
			}
			steps = append(steps, st)
		}
	}
	return Sequence{Name: fmt.Sprintf("CHAIN-%v-%d", op, k), Steps: append(steps, c.suffix...)}
}

// chainOf returns the chained program op runs, or nil for a NOT.
func chainOf(op Op) *chain {
	if base, _ := op.Base(); base < numOps {
		return chains[base]
	}
	return nil
}

// MaxChain returns the most operands one chained program of op folds
// within MaxSteps: 31 for AND and NAND, 16 for OR and NOR, 8 for XOR and
// XNOR, and 0 for an op with no chain.
func MaxChain(op Op) int {
	if c := chainOf(op); c != nil {
		return 2 + (MaxSteps-len(c.prefix)-len(c.suffix))/len(c.body)
	}
	return 0
}

// priceChain returns the cost of folding k aligned LSB operands with op
// in one chain (NAND, NOR and XNOR at their base op's price), or the
// error refusing it: k < 2, or an op with no chain. The prefix senses
// operands 0 and 1 and each body run one later operand, which the body's
// senses name as wordline 0.
func priceChain(op Op, k int) (Cost, error) {
	ch := chainOf(op)
	switch {
	case ch == nil:
		return Cost{}, fmt.Errorf("latch: op %v cannot chain", op)
	case k < 2:
		return Cost{}, fmt.Errorf("latch: chain of %d operands", k)
	}
	c := ch.ends
	c.SROs += (k - 2) * ch.each.SROs
	c.Loads = (k - 2) * ch.bodyLoads
	c.later = ch.each.reads[0]
	return c, nil
}
