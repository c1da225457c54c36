package latch

import "fmt"

// Flash-Cosmos multi-wordline sense (MWS) control programs. Where ParaBit
// folds an N-operand reduction into N−1 pairwise latch combines — sense,
// settle, combine, repeat — Flash-Cosmos applies the read voltage to all N
// operand wordlines of one NAND string at once and lets the string itself
// compute: it conducts only when every selected cell conducts, so a single
// sense captures NOT AND(LSB bits) at SO on the normal path and, through
// the per-string inverter, NOT OR on the inverted path. One combine and
// one transfer then land AND/OR/NAND/NOR at OUT.
//
// The physics dictates the constraints: all operands must share a NAND
// string (same block, consecutive wordlines — the FTL's colocation job),
// and Sequence.Validate enforces the other two: at most MaxMWSOperands
// cells may be selected before the sense margin collapses, and the one
// MWS must be the only sense in its control program. XOR and XNOR are
// not monotone in any single sense outcome, so they have no MWS form and
// fall back to pairwise chains.

// MaxMWSOperands is the per-sense operand cap: selecting more wordlines
// divides the already-thin on-cell margin across more series cells until
// the sense amplifier cannot tell a conducting string from a leaky one.
// Flash-Cosmos makes 8-deep sensing reliable by programming operands with
// ESP; reductions wider than this chunk into several senses.
const MaxMWSOperands = 8

// senseMulti selects k consecutive wordlines starting at wordline 0 in a
// single sense at the LSB read voltage.
func senseMulti(k int) Step {
	return Step{Kind: StepSenseMulti, V: VRead2, WLCount: k}
}

// senseMultiInv is senseMulti through the per-string inverter path.
func senseMultiInv(k int) Step {
	return Step{Kind: StepSenseMulti, V: VRead2, WLCount: k, Inverted: true}
}

// MWSComputable reports whether the operation has a Flash-Cosmos form: a
// single multi-wordline sense computes only the monotone folds AND/OR and
// their complements. XOR/XNOR/NOT reductions stay on pairwise chains.
func MWSComputable(op Op) bool {
	switch op {
	case OpAnd, OpOr, OpNand, OpNor:
		return true
	}
	return false
}

// forOpMWS builds the Flash-Cosmos control program reducing k LSB operands
// on consecutive wordlines 0..k-1 of one block, for an op MWSComputable
// accepts and a k in [2, MaxMWSOperands]; the MWS table checks both
// first.
func forOpMWS(op Op, k int) Sequence {
	name := fmt.Sprintf("MWS-%s-%d", op, k)
	var steps []Step
	switch op {
	case OpAnd:
		// SO = NOT AND(b); M2 leaves A = AND(b); transfer: OUT = AND(b).
		steps = []Step{init0, senseMulti(k), m2, m3}
	case OpOr:
		// Inverter path: SO = NOT OR(b); M2 leaves A = OR(b).
		steps = []Step{init0, senseMultiInv(k), m2, m3}
	case OpNand:
		// Inverted init and M1: C = AND(b), A = NAND(b); OUT = NAND(b).
		steps = []Step{initInv, senseMulti(k), m1, m3}
	case OpNor:
		steps = []Step{initInv, senseMultiInv(k), m1, m3}
	}
	return Sequence{Name: name, Steps: steps, ESP: true}
}

// mwsProgram is one (op, k) entry of the MWS program table: the cost of
// the validated control program, or the error refusing it.
type mwsProgram struct {
	cost Cost
	err  error
}

// The MWS program table holds one entry per op and operand count k in
// [0, MaxMWSOperands+1], so the refusals on either side of the legal range
// are built too. Like the paper's per-operation firmware programs, each
// entry is built, validated and priced once at package initialization,
// and every sense shares it read-only.
var mwsTable [numOps][MaxMWSOperands + 2]mwsProgram

func init() {
	for op := range mwsTable {
		for k := range mwsTable[op] {
			mwsTable[op][k] = newMWSProgram(Op(op), k)
		}
	}
}

func newMWSProgram(op Op, k int) mwsProgram {
	if !MWSComputable(op) {
		return mwsProgram{err: fmt.Errorf("latch: op %v has no multi-wordline sense form", op)}
	}
	if k < 2 || k > MaxMWSOperands {
		return mwsProgram{err: fmt.Errorf("latch: multi-wordline sense of %d operands, want 2..%d", k, MaxMWSOperands)}
	}
	seq := forOpMWS(op, k)
	if err := seq.Validate(); err != nil {
		return mwsProgram{err: err}
	}
	return mwsProgram{cost: costOf(seq.Steps)}
}

// mwsAt returns the MWS table's entry folding k block-colocated LSB
// operands with op: the validated program's cost, or the error refusing it (an
// op without an MWS form, a k outside [2, MaxMWSOperands], or a program
// the validator rejects). Combinations outside the table are refusals
// and are built fresh.
func mwsAt(op Op, k int) mwsProgram {
	if op < numOps && k >= 0 && k < len(mwsTable[op]) {
		return mwsTable[op][k]
	}
	return newMWSProgram(op, k)
}
