package latch

import (
	"fmt"
	"testing"
)

// The TLC cell model below is the oracle the TLC programs, page reads
// included, are checked against: the state space and the gray coding.

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

// TLCReadSequence returns the baseline read program of a TLC page.
func TLCReadSequence(p TLCPage) Sequence { return tlcReads[p] }

// TLCRunOp executes a three-operand operation on a cell in the given
// state and returns OUT.
func TLCRunOp(op TLCOp3, s TLCState) bool {
	c := NewCircuit(TLCCellSensor{s})
	return c.Run(tlcSeqs[op])
}

// TLCReadBit executes a baseline page read on a cell and returns OUT.
func TLCReadBit(p TLCPage, s TLCState) bool {
	c := NewCircuit(TLCCellSensor{s})
	return c.Run(TLCReadSequence(p))
}

func TestTLCGrayCodingMatchesPaper(t *testing.T) {
	// §4.4.1: "TLC encodes its eight states (from E, S1 to S7) as 111,
	// 110, 100, 101, 001, 000, 010, and 011".
	want := []string{"111", "110", "100", "101", "001", "000", "010", "011"}
	for s := TE; s < numTLCStates; s++ {
		got := ""
		for _, p := range []TLCPage{TLCLSB, TLCCSB, TLCMSB} {
			if s.Bit(p) {
				got += "1"
			} else {
				got += "0"
			}
		}
		if got != want[s] {
			t.Errorf("%v coded %s, want %s", s, got, want[s])
		}
	}
}

func TestTLCAdjacentStatesDifferByOneBit(t *testing.T) {
	// Gray property: one bit flip between neighbours (read-disturb
	// containment, why real TLC uses this family of codes).
	for s := TE; s < numTLCStates-1; s++ {
		diff := 0
		for _, p := range []TLCPage{TLCLSB, TLCCSB, TLCMSB} {
			if s.Bit(p) != (s + 1).Bit(p) {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("%v -> %v differ in %d bits", s, s+1, diff)
		}
	}
}

func TestTLCFromBitsRoundTrip(t *testing.T) {
	for s := TE; s < numTLCStates; s++ {
		got := TLCFromBits(s.Bit(TLCLSB), s.Bit(TLCCSB), s.Bit(TLCMSB))
		if got != s {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
}

func TestTLCSenseMonotone(t *testing.T) {
	// Once a state's threshold exceeds the reference, every higher state
	// does too: the sense outcome flips false->true exactly once.
	for v := TVRead0; v <= TVRead7; v++ {
		prev := false
		for s := TE; s < numTLCStates; s++ {
			cur := TLCSenseHigh(s, v)
			if prev && !cur {
				t.Errorf("sense at %v not monotone across states", v)
			}
			prev = cur
		}
	}
	// TVREAD0 is below everything.
	for s := TE; s < numTLCStates; s++ {
		if !TLCSenseHigh(s, TVRead0) {
			t.Errorf("state %v below TVREAD0", s)
		}
	}
}

func TestTLCPageReads(t *testing.T) {
	for _, p := range []TLCPage{TLCLSB, TLCCSB, TLCMSB} {
		for s := TE; s < numTLCStates; s++ {
			if got := TLCReadBit(p, s); got != s.Bit(p) {
				t.Errorf("read %v of %v = %v, want %v", p, s, got, s.Bit(p))
			}
		}
	}
}

func TestTLCReadSenseCounts(t *testing.T) {
	// The 1-2-4 gray split: LSB 1 sense, CSB 2, MSB 4 — total 7, the
	// seven reference voltages.
	want := map[TLCPage]int{TLCLSB: 1, TLCCSB: 2, TLCMSB: 4}
	total := 0
	for p, n := range want {
		got := TLCReadSequence(p).SROs()
		if got != n {
			t.Errorf("%v read uses %d senses, want %d", p, got, n)
		}
		total += got
	}
	if total != 7 {
		t.Errorf("total senses %d, want 7", total)
	}
}

func TestTLCOp3AllStates(t *testing.T) {
	for _, op := range []TLCOp3{TLCAnd3, TLCOr3, TLCNand3, TLCNor3} {
		for s := TE; s < numTLCStates; s++ {
			want := op.Eval(s.Bit(TLCLSB), s.Bit(TLCCSB), s.Bit(TLCMSB))
			if got := TLCRunOp(op, s); got != want {
				t.Errorf("%v on %v = %v, want %v", op, s, got, want)
			}
		}
	}
}

func TestTLCAnd3IsOneSense(t *testing.T) {
	// The paper's §4.4.1 example: AND of all three bits is a single
	// sense at VREAD1 (state E detection).
	if got := tlcSeqs[TLCAnd3].SROs(); got != 1 {
		t.Errorf("AND3 uses %d senses, want 1", got)
	}
	if got := tlcSeqs[TLCOr3].SROs(); got != 2 {
		t.Errorf("OR3 uses %d senses, want 2", got)
	}
}

func TestTLCSensorPanicsOnBadWordline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TLCCellSensor{TE}.Sense(2, Vref(TVRead1))
}

func TestTLCStrings(t *testing.T) {
	if TE.String() != "E" || TS5.String() != "S5" {
		t.Error("state strings")
	}
	if TLCCSB.String() != "CSB" {
		t.Error("page strings")
	}
	if TLCAnd3.String() != "AND3" || TLCNor3.String() != "NOR3" {
		t.Error("op strings")
	}
	if TVRead3.String() != "TVREAD3" {
		t.Error("vref strings")
	}
}
