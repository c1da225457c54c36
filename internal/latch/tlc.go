package latch

import "fmt"

// TLC extension (paper §4.4.1). TLC cells store three bits across eight
// threshold states; the paper gives the gray coding E..S7 =
// 111, 110, 100, 101, 001, 000, 010, 011 (LSB, CSB, MSB) and notes that
// the ParaBit principles carry over — e.g. a three-operand AND is a
// single sense at VREAD1, which isolates state E, the only state where
// all three bits are 1.
//
// This file models the TLC state space, its seven read reference
// voltages, the per-page read sequences implied by the gray code
// (1-2-4 senses for LSB/CSB/MSB), and the three-operand AND/OR/NOR/NAND
// sequences the coding admits directly. The per-bitline circuit is the
// same Circuit type; only the sensing changes.

// TLCState is the threshold state of a TLC cell, in increasing-voltage
// order.
type TLCState uint8

// The eight TLC states.
const (
	TE TLCState = iota
	TS1
	TS2
	TS3
	TS4
	TS5
	TS6
	TS7
	numTLCStates = 8
)

func (s TLCState) String() string {
	if s == TE {
		return "E"
	}
	return fmt.Sprintf("S%d", uint8(s))
}

// tlcCode is the paper's gray coding, listed E..S7 as (LSB, CSB, MSB).
var tlcCode = [numTLCStates][3]bool{
	{true, true, true},    // E   = 111
	{true, true, false},   // S1  = 110
	{true, false, false},  // S2  = 100
	{true, false, true},   // S3  = 101
	{false, false, true},  // S4  = 001
	{false, false, false}, // S5  = 000
	{false, true, false},  // S6  = 010
	{false, true, true},   // S7  = 011
}

// TLCPage selects one of a TLC wordline's three pages.
type TLCPage uint8

// The three TLC pages, by significance.
const (
	TLCLSB TLCPage = iota
	TLCCSB
	TLCMSB
)

func (p TLCPage) String() string {
	switch p {
	case TLCLSB:
		return "LSB"
	case TLCCSB:
		return "CSB"
	case TLCMSB:
		return "MSB"
	}
	return fmt.Sprintf("TLCPage(%d)", uint8(p))
}

// Bit returns the page bit the state stores.
func (s TLCState) Bit(p TLCPage) bool { return tlcCode[s][p] }

// TLCFromBits returns the state encoding the given (LSB, CSB, MSB) bits.
func TLCFromBits(lsb, csb, msb bool) TLCState {
	for s := TE; s < numTLCStates; s++ {
		c := tlcCode[s]
		if c[0] == lsb && c[1] == csb && c[2] == msb {
			return s
		}
	}
	panic("latch: unreachable TLC coding")
}

// TLCVref is a TLC read reference voltage. TVRead0 sits below the erased
// distribution; TVRead1..TVRead7 separate adjacent states.
type TLCVref uint8

// TLC reference voltages in increasing order.
const (
	TVRead0 TLCVref = iota
	TVRead1
	TVRead2
	TVRead3
	TVRead4
	TVRead5
	TVRead6
	TVRead7
)

func (v TLCVref) String() string { return fmt.Sprintf("TVREAD%d", uint8(v)) }

// TLCSenseHigh reports the ideal comparison at SO: whether a cell in
// state s has threshold voltage above reference v.
func TLCSenseHigh(s TLCState, v TLCVref) bool { return uint8(s) >= uint8(v) }

// TLCCellSensor adapts TLC cells to the Circuit's Sensor interface: the
// Vref in a Step is interpreted as a TLCVref.
type TLCCellSensor []TLCState

// Sense implements Sensor over TLC states.
func (c TLCCellSensor) Sense(wl int, v Vref) bool {
	if wl < 0 || wl >= len(c) {
		panic(fmt.Sprintf("latch: TLC sense of wordline %d with %d cells", wl, len(c)))
	}
	return TLCSenseHigh(c[wl], TLCVref(v))
}

func tsense(v TLCVref) Step { return Step{Kind: StepSense, V: Vref(v)} }

// TLCReadSequence returns the baseline read sequence of a TLC page,
// derived from the gray code's bit boundaries: LSB flips once (1 sense at
// TVREAD4), CSB twice (TVREAD2, TVREAD6), MSB four times (TVREAD1,
// TVREAD3, TVREAD5, TVREAD7) — the classic 1-2-4 split.
func TLCReadSequence(p TLCPage) Sequence {
	switch p {
	case TLCLSB:
		return Sequence{Name: "TLC-READ-LSB", Steps: []Step{
			init0, tsense(TVRead4), m2, m3,
		}}
	case TLCCSB:
		// CSB = 1 for {E,S1} and {S6,S7}: the MLC MSB-read shape with the
		// band boundaries TVREAD2 and TVREAD6 — A gathers {E,S1}, then
		// M1 carves the middle band out of C, leaving A = CSB.
		return Sequence{Name: "TLC-READ-CSB", Steps: []Step{
			init0,
			tsense(TVRead2), m2, // A = {E,S1}
			tsense(TVRead6), m1, // C = [S2..S5], A = {E,S1,S6,S7}
			m3,
		}}
	case TLCMSB:
		// MSB = 1 for {E, S3, S4, S7}: four boundaries, four senses.
		return Sequence{Name: "TLC-READ-MSB", Steps: []Step{
			init0,
			tsense(TVRead1), m2, // A = {E}
			tsense(TVRead3), m1, // C gathers [S3..]; A = {E} ∪ [S3..]
			tsense(TVRead5), m2, // A = {E, S3, S4}
			tsense(TVRead7), m1, // A = {E, S3, S4, S7}
			m3,
		}}
	}
	panic(fmt.Sprintf("latch: invalid TLC page %v", p))
}

// TLCOp3 is a three-operand bitwise operation over a TLC cell's LSB, CSB
// and MSB bits.
type TLCOp3 uint8

// The three-operand operations the TLC coding supports with short
// sequences.
const (
	TLCAnd3 TLCOp3 = iota
	TLCOr3
	TLCNand3
	TLCNor3
)

func (o TLCOp3) String() string {
	switch o {
	case TLCAnd3:
		return "AND3"
	case TLCOr3:
		return "OR3"
	case TLCNand3:
		return "NAND3"
	case TLCNor3:
		return "NOR3"
	}
	return fmt.Sprintf("TLCOp3(%d)", uint8(o))
}

// Eval computes the operation on three bits.
func (o TLCOp3) Eval(lsb, csb, msb bool) bool {
	switch o {
	case TLCAnd3:
		return lsb && csb && msb
	case TLCOr3:
		return lsb || csb || msb
	case TLCNand3:
		return !(lsb && csb && msb)
	case TLCNor3:
		return !(lsb || csb || msb)
	}
	panic(fmt.Sprintf("latch: invalid TLC op %d", uint8(o)))
}

// TLCForOp returns the control sequence of a three-operand operation.
//
//   - AND3 detects state E (all bits 1) with one sense at TVREAD1 — the
//     paper's §4.4.1 example.
//   - OR3 is false only in state S5 (000): isolate [S5] with senses at
//     TVREAD5 and TVREAD6 on the inverted initialization.
//   - The N-variants invert via the initialization polarity, exactly as
//     the MLC NAND/NOR sequences do.
//
// The sequences are built once; every call shares them read-only.
func TLCForOp(op TLCOp3) Sequence {
	if int(op) < len(tlcSeqs) {
		return tlcSeqs[op]
	}
	panic(fmt.Sprintf("latch: invalid TLC op %v", op))
}

var tlcSeqs = [...]Sequence{
	TLCAnd3: {Name: "TLC-AND3", Steps: []Step{
		init0, tsense(TVRead1), m2, m3,
	}},
	TLCNand3: {Name: "TLC-NAND3", Steps: []Step{
		initInv, tsense(TVRead1), m1, m3,
	}},
	// OUT must be 0 only for S5. Shape of the MLC OR: gather [S5..S7] at
	// C via TVREAD5, then clear [S6..S7] via TVREAD6; A ends NOT [S5] =
	// OR3.
	TLCOr3: {Name: "TLC-OR3", Steps: []Step{
		init0,
		tsense(TVRead5), m2, // A = [E..S4]
		tsense(TVRead6), m1, // C = [S5], A = NOT [S5]
		m3,
	}},
	TLCNor3: {Name: "TLC-NOR3", Steps: []Step{
		initInv,
		tsense(TVRead5), m1, // C = [E..S4] ... A = [S5..S7]
		tsense(TVRead6), m2, // A = [S5]
		m3,
	}},
}

// TLCRunOp executes a three-operand operation on a cell in the given
// state and returns OUT.
func TLCRunOp(op TLCOp3, s TLCState) bool {
	c := NewCircuit(TLCCellSensor{s})
	return c.Run(TLCForOp(op))
}

// TLCReadBit executes a baseline page read on a cell and returns OUT.
func TLCReadBit(p TLCPage, s TLCState) bool {
	c := NewCircuit(TLCCellSensor{s})
	return c.Run(TLCReadSequence(p))
}
