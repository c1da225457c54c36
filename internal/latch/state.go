// Package latch simulates the sense-amplifier latching circuit of an MLC
// NAND flash plane, the mechanism ParaBit reprograms to compute bitwise
// operations during reads (Gao et al., MICRO '21, §2.2 and §4).
//
// The circuit has five observable nodes — the sense node SO, the L1 latch
// (nodes A and C, with C = NOT A), and the L2 latch (nodes B and OUT, with
// OUT = NOT B) — and control transistors M1, M2 and M3:
//
//	M1: pulls C to ground when SO is high  →  C &= NOT SO;  A = NOT C
//	M2: pulls A to ground when SO is high  →  A &= NOT SO;  C = NOT A
//	M3: transfers L1 to L2                 →  B &= NOT A;   OUT = NOT B
//
// A control sequence is a list of initialization, sensing and transistor
// steps. Running the paper's sequences on this circuit reproduces, step by
// step, every intermediate vector printed in the paper's Figures 2-8 and
// Tables 2-7; the package tests assert them all.
package latch

import "fmt"

// State is the threshold-voltage state of an MLC cell. Threshold voltage
// increases from E (erased) to S3, and the paper's gray coding (Table 1)
// maps states to (LSB, MSB) pairs as E=(1,1), S1=(1,0), S2=(0,0), S3=(0,1).
type State uint8

// The four MLC states in increasing threshold-voltage order.
const (
	E State = iota
	S1
	S2
	S3
	numStates = 4
)

// LSB returns the least-significant page bit stored by the state.
func (s State) LSB() bool { return s == E || s == S1 }

// MSB returns the most-significant page bit stored by the state.
func (s State) MSB() bool { return s == E || s == S3 }

// FromBits returns the state encoding the given (LSB, MSB) pair.
func FromBits(lsb, msb bool) State {
	switch {
	case lsb && msb:
		return E
	case lsb && !msb:
		return S1
	case !lsb && !msb:
		return S2
	default:
		return S3
	}
}

func (s State) String() string {
	switch s {
	case E:
		return "E"
	case S1:
		return "S1"
	case S2:
		return "S2"
	case S3:
		return "S3"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Vref is one of the read reference voltages. VRead1..VRead3 sit between
// adjacent state distributions; VRead0 sits below the erased distribution,
// so sensing at VRead0 reports "high" for every state (the paper uses it in
// the XNOR and XOR sequences to clear L1 unconditionally).
type Vref uint8

// Reference voltages in increasing order. SenseHigh(s, VReadK) is true
// exactly when state s's threshold voltage exceeds VReadK:
//
//	VRead0: 1111   VRead1: 0111   VRead2: 0011   VRead3: 0001
//
// using the paper's L(SO)=x1x2x3x4 notation over states (E,S1,S2,S3).
const (
	VRead0 Vref = iota
	VRead1
	VRead2
	VRead3
)

func (v Vref) String() string { return fmt.Sprintf("VREAD%d", uint8(v)) }

// SenseHigh reports the ideal single-read-operation outcome at node SO:
// whether a cell in state s conducts a voltage above reference v.
func SenseHigh(s State, v Vref) bool {
	// State order matches Vref order: state s exceeds VReadK iff s >= k.
	return uint8(s) >= uint8(v)
}

// Op is one of the bitwise operations ParaBit performs in the latching
// circuit. NotLSB and NotMSB are the two halves of the paper's NOT row.
type Op uint8

const (
	OpAnd Op = iota
	OpOr
	OpXnor
	OpNand
	OpNor
	OpXor
	OpNotLSB
	OpNotMSB
	numOps
)

// Ops lists every operation, in the paper's Table 1 column order.
var Ops = []Op{OpAnd, OpOr, OpXnor, OpNand, OpNor, OpXor, OpNotLSB, OpNotMSB}

// BinaryOps lists the two-operand operations (everything but the NOTs).
var BinaryOps = []Op{OpAnd, OpOr, OpXnor, OpNand, OpNor, OpXor}

func (o Op) String() string {
	switch o {
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpXnor:
		return "XNOR"
	case OpNand:
		return "NAND"
	case OpNor:
		return "NOR"
	case OpXor:
		return "XOR"
	case OpNotLSB:
		return "NOT-LSB"
	case OpNotMSB:
		return "NOT-MSB"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Eval computes the operation on two operand bits. For NotLSB and NotMSB,
// only the corresponding operand is consulted.
func (o Op) Eval(lsb, msb bool) bool {
	switch o {
	case OpAnd:
		return lsb && msb
	case OpOr:
		return lsb || msb
	case OpXnor:
		return lsb == msb
	case OpNand:
		return !(lsb && msb)
	case OpNor:
		return !(lsb || msb)
	case OpXor:
		return lsb != msb
	case OpNotLSB:
		return !lsb
	case OpNotMSB:
		return !msb
	}
	panic(fmt.Sprintf("latch: invalid op %d", uint8(o)))
}

// TruthTable returns the paper's Table 1 row outputs for the operation:
// the expected OUT value when the sensed cell is in each of the four
// states, in (E,S1,S2,S3) order.
func (o Op) TruthTable() [numStates]bool {
	var t [numStates]bool
	for s := E; s <= S3; s++ {
		t[s] = o.Eval(s.LSB(), s.MSB())
	}
	return t
}
