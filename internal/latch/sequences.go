package latch

import "fmt"

// Sequence is a named latching-circuit control program. Its senses are
// the component with real latency on flash (25 µs each on the modeled MLC
// parts), counted by the cost lookup (Price); every other step is circuit
// switching at negligible cost next to a sense.
type Sequence struct {
	Name  string
	Steps []Step
	// ESP marks a Flash-Cosmos sequence whose operands were written with
	// enhanced SLC programming: a tighter (slower) program that widens the
	// threshold margins a multi-wordline sense needs. It changes program
	// latency and the reliability model, never the circuit algebra, so
	// Validate ignores it.
	ESP bool
}

func sense(v Vref) Step            { return Step{Kind: StepSense, V: v} }
func senseWL(wl int, v Vref) Step  { return Step{Kind: StepSense, V: v, WL: wl} }
func senseInv(wl int, v Vref) Step { return Step{Kind: StepSense, V: v, WL: wl, Inverted: true} }

var (
	init0   = Step{Kind: StepInit}
	initInv = Step{Kind: StepInitInv}
	reinit  = Step{Kind: StepReinitL1}
	m1      = Step{Kind: StepM1}
	m2      = Step{Kind: StepM2}
	m3      = Step{Kind: StepM3}
)

// readLSB is the baseline LSB page read (paper Fig. 3 top): one sense at
// VREAD2, captured through M2, then transferred to L2. OUT ends equal to
// the cell's LSB bit.
var readLSB = Sequence{
	Name:  "READ-LSB",
	Steps: []Step{init0, sense(VRead2), m2, m3},
}

// readMSB is the baseline MSB page read (paper Fig. 3 bottom): senses at
// VREAD1 and VREAD3, then transfers. OUT ends equal to the cell's MSB bit.
var readMSB = Sequence{
	Name:  "READ-MSB",
	Steps: []Step{init0, sense(VRead1), m2, sense(VRead3), m1, m3},
}

// Basic ParaBit sequences: both operand bits live in the same MLC cell
// (first operand in the LSB page, second in the MSB page), so a sequence
// senses only wordline 0.

// seqAnd implements paper Fig. 5(a): the read-LSB control shape with the
// sensing voltage moved to VREAD1, so OUT=1 only for state E (LSB=MSB=1).
var seqAnd = Sequence{
	Name:  "AND",
	Steps: []Step{init0, sense(VRead1), m2, m3},
}

// seqOr implements paper Fig. 5(b): the read-MSB control shape with
// voltages VREAD2 and VREAD3, leaving OUT=1101 over (E,S1,S2,S3).
var seqOr = Sequence{
	Name:  "OR",
	Steps: []Step{init0, sense(VRead2), m2, sense(VRead3), m1, m3},
}

// seqXnor implements paper Fig. 6: six control steps with four senses
// (VREAD1, VREAD0, VREAD2, VREAD3), accumulating E-or-S2 detection in L2.
var seqXnor = Sequence{
	Name: "XNOR",
	Steps: []Step{
		init0,
		sense(VRead1), m2, // step 1: A=1000
		m3,                // step 2: OUT=1000
		sense(VRead0), m2, // step 3: clear L1 (A=0000)
		sense(VRead2), m1, // step 4: C=1100, A=0011
		sense(VRead3), m2, // step 5: A=0010
		m3, // step 6: B=0101, OUT=1010
	},
}

// seqNand implements paper Table 2: inverted initialization, one sense at
// VREAD1 through M1, one transfer. OUT ends 0111.
var seqNand = Sequence{
	Name:  "NAND",
	Steps: []Step{initInv, sense(VRead1), m1, m3},
}

// seqNor implements paper Table 3: inverted initialization, senses at
// VREAD2 (M1) and VREAD3 (M2), then transfer. OUT ends 0010.
var seqNor = Sequence{
	Name:  "NOR",
	Steps: []Step{initInv, sense(VRead2), m1, sense(VRead3), m2, m3},
}

// seqXor implements paper Table 4: M XOR N = (NOT M)N + M(NOT N), built
// from an S3 detection transferred to L2 followed by an S1 detection
// OR-merged by the final transfer. Four senses in total.
var seqXor = Sequence{
	Name: "XOR",
	Steps: []Step{
		initInv,
		sense(VRead3), m1, // row 2: A=0001 (S3 detector)
		m3,                // row 3: OUT=0001
		sense(VRead0), m2, // row 4: clear L1 through M2 (A=0000, C=1111)
		sense(VRead1), m1, // row 5: C=1000, A=0111
		sense(VRead2), m2, // row 6: A=0100 (S1 detector)
		m3, // row 7: OUT=0101
	},
}

// seqNotLSB implements paper Table 5 top: the LSB read shape on the
// inverted initialization, yielding the complement of the LSB page.
var seqNotLSB = Sequence{
	Name:  "NOT-LSB",
	Steps: []Step{initInv, sense(VRead2), m1, m3},
}

// seqNotMSB implements paper Table 5 bottom: the MSB read shape on the
// inverted initialization (VREAD1 through M1, VREAD3 through M2).
var seqNotMSB = Sequence{
	Name:  "NOT-MSB",
	Steps: []Step{initInv, sense(VRead1), m1, sense(VRead3), m2, m3},
}

var basicSeqs = map[Op]Sequence{
	OpAnd:    seqAnd,
	OpOr:     seqOr,
	OpXnor:   seqXnor,
	OpNand:   seqNand,
	OpNor:    seqNor,
	OpXor:    seqXor,
	OpNotLSB: seqNotLSB,
	OpNotMSB: seqNotMSB,
}

// ForOp returns the basic-ParaBit control sequence for the operation,
// which assumes both operand bits are stored in the same MLC cell.
func ForOp(op Op) Sequence {
	s, ok := basicSeqs[op]
	if !ok {
		panic(fmt.Sprintf("latch: no sequence for op %v", op))
	}
	return s
}

// Location-free sequences (paper §4.2): the first operand M is the MSB bit
// of the cell on wordline 0; the second operand N is the LSB bit of the
// aligned cell on wordline 1. Sensing wordline 1 at VREAD2 yields NOT N at
// SO on the normal path (a high threshold means LSB=0) and N through the
// added inverter. As the paper notes for AND and XOR, the second operand
// must be an LSB bit; OR tolerates either but is expressed the same way.

// locFreeAnd: read M into A (MSB read), then one LSB sense of the second
// cell gates A through M2: A = M AND N. Paper Table 6.
var locFreeAnd = Sequence{
	Name: "LF-AND",
	Steps: []Step{
		init0,
		senseWL(0, VRead1), m2, senseWL(0, VRead3), m1, // A = M
		senseWL(1, VRead2), m2, // A = M AND N (SO = NOT N)
		m3,
	},
}

// locFreeOr: read M, park it in L2, re-initialize L1, read N, and let the
// final transfer OR-merge: OUT = M OR N. Paper Table 7.
var locFreeOr = Sequence{
	Name: "LF-OR",
	Steps: []Step{
		init0,
		senseWL(0, VRead1), m2, senseWL(0, VRead3), m1, // A = M
		m3,                     // B = NOT M, OUT = M
		reinit,                 // A=1
		senseWL(1, VRead2), m2, // A = N
		m3, // OUT = M OR N
	},
}

// locFreeXor: two phases per paper Fig. 8. Phase 1 computes (NOT M)N via a
// NOT-MSB read and a normal-path LSB sense; phase 2 computes M(NOT N) via
// an MSB read and an inverter-path LSB sense; the transfers OR the phases.
var locFreeXor = Sequence{
	Name: "LF-XOR",
	Steps: []Step{
		initInv,
		senseWL(0, VRead1), m1, senseWL(0, VRead3), m2, // A = NOT M
		senseWL(1, VRead2), m2, // A = (NOT M) AND N
		m3,                                             // OUT = (NOT M)N
		reinit,                                         // normal L1 polarity for the MSB read
		senseWL(0, VRead1), m2, senseWL(0, VRead3), m1, // A = M
		senseInv(1, VRead2), m2, // A = M AND (NOT N), via inverter
		m3, // OUT = (NOT M)N + M(NOT N)
	},
}

// locFreeNand: NOT M parked in L2 would give OR of complements directly,
// but the transfer algebra works out shorter: read NOT M, transfer
// (B = M), re-init, capture NOT N via the inverter path, and the final
// transfer leaves B = M AND N, OUT = NAND.
var locFreeNand = Sequence{
	Name: "LF-NAND",
	Steps: []Step{
		initInv,
		senseWL(0, VRead1), m1, senseWL(0, VRead3), m2, // A = NOT M
		m3,                      // B = M, OUT = NOT M
		reinit,                  // A=1
		senseInv(1, VRead2), m2, // A = NOT N (SO = N via inverter)
		m3, // B = M AND N, OUT = NAND
	},
}

// locFreeNor: (NOT M) AND (NOT N) — a NOT-MSB read gated by an
// inverter-path LSB sense.
var locFreeNor = Sequence{
	Name: "LF-NOR",
	Steps: []Step{
		initInv,
		senseWL(0, VRead1), m1, senseWL(0, VRead3), m2, // A = NOT M
		senseInv(1, VRead2), m2, // A = (NOT M)(NOT N)
		m3,
	},
}

// locFreeXnor: (NOT M)(NOT N) + MN, the two-phase dual of locFreeXor.
var locFreeXnor = Sequence{
	Name: "LF-XNOR",
	Steps: []Step{
		initInv,
		senseWL(0, VRead1), m1, senseWL(0, VRead3), m2, // A = NOT M
		senseInv(1, VRead2), m2, // A = (NOT M)(NOT N)
		m3,
		reinit,
		senseWL(0, VRead1), m2, senseWL(0, VRead3), m1, // A = M
		senseWL(1, VRead2), m2, // A = MN
		m3, // OUT = (NOT M)(NOT N) + MN
	},
}

// locFreeNotMSB and locFreeNotLSB: NOT needs no second operand; the basic
// sequences already work on arbitrary wordlines. Aliased here for symmetry.
var (
	locFreeNotLSB = Sequence{Name: "LF-NOT-LSB", Steps: seqNotLSBonWL1()}
	locFreeNotMSB = Sequence{Name: "LF-NOT-MSB", Steps: seqNotMSB.Steps}
)

// seqNotLSBonWL1 inverts the LSB of the second wordline, which is where
// location-free layouts keep LSB operands.
func seqNotLSBonWL1() []Step {
	return []Step{initInv, senseWL(1, VRead2), m1, m3}
}

var locFreeSeqs = map[Op]Sequence{
	OpAnd:    locFreeAnd,
	OpOr:     locFreeOr,
	OpXor:    locFreeXor,
	OpNand:   locFreeNand,
	OpNor:    locFreeNor,
	OpXnor:   locFreeXnor,
	OpNotLSB: locFreeNotLSB,
	OpNotMSB: locFreeNotMSB,
}

// ForOpLocFree returns the location-free control sequence for the
// operation. The first operand is the MSB bit of the wordline-0 cell; the
// second operand is the LSB bit of the aligned wordline-1 cell.
func ForOpLocFree(op Op) Sequence {
	s, ok := locFreeSeqs[op]
	if !ok {
		panic(fmt.Sprintf("latch: no location-free sequence for op %v", op))
	}
	return s
}

// RequiresInverter reports whether the operation's location-free sequence
// uses the extra inverter path (M7) that basic hardware lacks.
func RequiresInverter(op Op) bool {
	for _, st := range ForOpLocFree(op).Steps {
		if st.Kind == StepSense && st.Inverted {
			return true
		}
	}
	return false
}
