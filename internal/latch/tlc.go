package latch

import "fmt"

// TLC extension (paper §4.4.1). TLC cells store three bits across eight
// threshold states; the paper gives the gray coding E..S7 =
// 111, 110, 100, 101, 001, 000, 010, 011 (LSB, CSB, MSB) and notes that
// the ParaBit principles carry over — e.g. a three-operand AND is a
// single sense at VREAD1, which isolates state E, the only state where
// all three bits are 1.
//
// This file holds the seven TLC read reference voltages, the baseline
// page reads ReadCost prices TLC reads from, and the three-operand
// AND/OR/NOR/NAND programs the coding admits directly. The cell model
// that proves them — the state space and the gray coding — is the
// package tests' oracle. The per-bitline circuit is the same Circuit
// type; only the sensing changes.

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

func tsense(v TLCVref) Step { return Step{Kind: StepSense, V: Vref(v)} }

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

// Op returns the two-operand op whose fold over the three pages computes
// the operation: AND3 folds with AND, NOR3 with NOR.
func (o TLCOp3) Op() Op {
	if int(o) < len(tlcFold) {
		return tlcFold[o]
	}
	panic(fmt.Sprintf("latch: invalid TLC op %d", uint8(o)))
}

var tlcFold = [...]Op{TLCAnd3: OpAnd, TLCOr3: OpOr, TLCNand3: OpNand, TLCNor3: OpNor}

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

// tlcSeqs holds the control program of each three-operand operation.
//
//   - AND3 detects state E (all bits 1) with one sense at TVREAD1 — the
//     paper's §4.4.1 example.
//   - OR3 is false only in state S5 (000): isolate [S5] with senses at
//     TVREAD5 and TVREAD6 on the inverted initialization.
//   - The N-variants invert via the initialization polarity, exactly as
//     the MLC NAND/NOR sequences do.
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

// tlcReads holds the baseline read program of each TLC page (LSB, CSB,
// MSB): one sense per boundary where the gray code flips the page's bit,
// the classic 1-2-4 split. CSB = 1 for {E,S1} and {S6,S7}, the MLC MSB
// read's shape; MSB = 1 for {E,S3,S4,S7}, gathered in A as the senses
// alternate M2 and M1.
var tlcReads = [...]Sequence{
	{Name: "TLC-READ-LSB", Steps: []Step{init0, tsense(TVRead4), m2, m3}},
	{Name: "TLC-READ-CSB", Steps: []Step{init0, tsense(TVRead2), m2, tsense(TVRead6), m1, m3}},
	{Name: "TLC-READ-MSB", Steps: []Step{init0, tsense(TVRead1), m2, tsense(TVRead3), m1,
		tsense(TVRead5), m2, tsense(TVRead7), m1, m3}},
}
