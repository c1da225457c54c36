package latch

// Location-free sequences for the all-LSB data layout the paper's
// location-free evaluation uses (§5.5: "We store all data in LSB bits of
// MLCs"). Both operands are LSB bits of aligned cells: M on wordline 0,
// N on wordline 1. Sensing either wordline at VREAD2 puts the complement
// of its LSB at SO on the normal path, or the LSB itself through the
// added inverter.
//
// Reading an operand from an LSB page costs one SRO instead of the MSB
// page's two, so these sequences are shorter than their MSB-layout
// counterparts in sequences.go — AND drops from 3 senses to 2, XOR from
// 6 to 4 — while still sensing more than basic (co-located) ParaBit,
// which is the Fig. 15 trade-off.

// lsbAnd: A = M (LSB read of wl0), then gate by N: one more sense.
var lsbAnd = Sequence{
	Name: "LF-LSB-AND",
	Steps: []Step{
		init0,
		senseWL(0, VRead2), m2, // A = M
		senseWL(1, VRead2), m2, // A = M AND N
		m3,
	},
}

// lsbOr: park M in L2, re-read N, OR-merge on transfer.
var lsbOr = Sequence{
	Name: "LF-LSB-OR",
	Steps: []Step{
		init0,
		senseWL(0, VRead2), m2, // A = M
		m3,                     // OUT = M
		reinit,                 // A = 1
		senseWL(1, VRead2), m2, // A = N
		m3, // OUT = M OR N
	},
}

// lsbXor: ((NOT M) AND N) OR (M AND (NOT N)), two phases.
var lsbXor = Sequence{
	Name: "LF-LSB-XOR",
	Steps: []Step{
		initInv,
		senseWL(0, VRead2), m1, // A = NOT M (NOT-LSB read shape)
		senseWL(1, VRead2), m2, // A = (NOT M) AND N
		m3,                     // OUT = (NOT M)N
		reinit,                 // A = 1
		senseWL(0, VRead2), m2, // A = M
		senseInv(1, VRead2), m2, // A = M AND (NOT N), inverter path
		m3, // OUT = XOR
	},
}

// lsbNand: B ends M AND N via a NOT-M park plus inverter-path NOT-N.
var lsbNand = Sequence{
	Name: "LF-LSB-NAND",
	Steps: []Step{
		initInv,
		senseWL(0, VRead2), m1, // A = NOT M
		m3,                      // B = M, OUT = NOT M
		reinit,                  // A = 1
		senseInv(1, VRead2), m2, // A = NOT N
		m3, // B = M AND N, OUT = NAND
	},
}

// lsbNor: (NOT M) AND (NOT N) in one phase.
var lsbNor = Sequence{
	Name: "LF-LSB-NOR",
	Steps: []Step{
		initInv,
		senseWL(0, VRead2), m1, // A = NOT M
		senseInv(1, VRead2), m2, // A = (NOT M)(NOT N)
		m3,
	},
}

// lsbXnor: (NOT M)(NOT N) + MN, two phases.
var lsbXnor = Sequence{
	Name: "LF-LSB-XNOR",
	Steps: []Step{
		initInv,
		senseWL(0, VRead2), m1, // A = NOT M
		senseInv(1, VRead2), m2, // A = (NOT M)(NOT N)
		m3,
		reinit,
		senseWL(0, VRead2), m2, // A = M
		senseWL(1, VRead2), m2, // A = M AND N
		m3,
	},
}

var (
	lsbNotM = Sequence{Name: "LF-LSB-NOT-M", Steps: []Step{initInv, senseWL(0, VRead2), m1, m3}}
	lsbNotN = Sequence{Name: "LF-LSB-NOT-N", Steps: []Step{initInv, senseWL(1, VRead2), m1, m3}}
)

var lsbSeqs = map[Op]Sequence{
	OpAnd:  lsbAnd,
	OpOr:   lsbOr,
	OpXor:  lsbXor,
	OpNand: lsbNand,
	OpNor:  lsbNor,
	OpXnor: lsbXnor,
	// In the all-LSB layout "NOT-LSB" inverts the first operand and
	// "NOT-MSB" has no MSB to invert; it maps to inverting the aligned
	// second wordline's operand instead.
	OpNotLSB: lsbNotM,
	OpNotMSB: lsbNotN,
}
