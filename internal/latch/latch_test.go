package latch

import (
	"testing"
	"testing/quick"
)

func TestStateGrayCoding(t *testing.T) {
	// Paper Table 1: E=(1/1), S1=(1/0), S2=(0/0), S3=(0/1) as (LSB/MSB).
	want := []struct {
		s        State
		lsb, msb bool
	}{
		{E, true, true}, {S1, true, false}, {S2, false, false}, {S3, false, true},
	}
	for _, w := range want {
		if w.s.LSB() != w.lsb || w.s.MSB() != w.msb {
			t.Errorf("%v: (LSB,MSB)=(%v,%v), want (%v,%v)", w.s, w.s.LSB(), w.s.MSB(), w.lsb, w.msb)
		}
		if FromBits(w.lsb, w.msb) != w.s {
			t.Errorf("FromBits(%v,%v) = %v, want %v", w.lsb, w.msb, FromBits(w.lsb, w.msb), w.s)
		}
	}
}

func TestSenseVectors(t *testing.T) {
	// §2.2: sensing at VREAD0..3 yields SO vectors 1111, 0111, 0011, 0001.
	want := map[Vref]string{VRead0: "1111", VRead1: "0111", VRead2: "0011", VRead3: "0001"}
	for v, ws := range want {
		var got Vec4
		for s := E; s <= S3; s++ {
			got[s] = SenseHigh(s, v)
		}
		if got.String() != ws {
			t.Errorf("sense at %v = %s, want %s", v, got, ws)
		}
	}
}

// expectRow asserts selected node vectors in a symbolic row. Empty strings
// skip a node. This is how each table row from the paper is written down.
func expectRow(t *testing.T, seq Sequence, rows []SymbolicRow, i int, so, c, a, b, out string) {
	t.Helper()
	r := rows[i]
	check := func(name, want string, got Vec4) {
		t.Helper()
		if want != "" && got.String() != want {
			t.Errorf("%s step %d (%v): L(%s)=%s, want %s\n%s",
				seq.Name, i, r.Step, name, got, want, FormatTable(seq, rows))
		}
	}
	check("SO", so, r.SO)
	check("C", c, r.C)
	check("A", a, r.A)
	check("B", b, r.B)
	check("OUT", out, r.Out)
}

func TestInitialization(t *testing.T) {
	// Paper Fig. 2: after init, L(C)=0000, L(A)=1111, L(OUT)=0000, L(B)=1111.
	rows := RunSymbolic(Sequence{Name: "init", Steps: []Step{{Kind: StepInit}}}, false)
	expectRow(t, ReadLSB, rows, 0, "", "0000", "1111", "1111", "0000")
	// Paper Fig. 7: inverted init has L(A)=0000, L(C)=1111, L2 unchanged.
	rows = RunSymbolic(Sequence{Name: "init-inv", Steps: []Step{{Kind: StepInitInv}}}, false)
	expectRow(t, ReadLSB, rows, 0, "", "1111", "0000", "1111", "0000")
}

func TestReadLSBSequence(t *testing.T) {
	// Paper Fig. 3 top: sense VREAD2 (SO=0011), M2 gives A=1100 (the LSB
	// pattern), M3 transfers it to OUT.
	rows := RunSymbolic(ReadLSB, false)
	expectRow(t, ReadLSB, rows, 1, "0011", "", "", "", "")
	expectRow(t, ReadLSB, rows, 2, "", "0011", "1100", "", "")
	expectRow(t, ReadLSB, rows, 3, "", "", "", "0011", "1100")
	if ReadLSB.SROs() != 1 {
		t.Errorf("LSB read uses %d SROs, want 1", ReadLSB.SROs())
	}
}

func TestReadMSBSequence(t *testing.T) {
	// Paper Fig. 3 bottom: VREAD1 then VREAD3; A ends 1001 (MSB pattern).
	rows := RunSymbolic(ReadMSB, false)
	expectRow(t, ReadMSB, rows, 1, "0111", "", "", "", "")
	expectRow(t, ReadMSB, rows, 2, "", "0111", "1000", "", "")
	expectRow(t, ReadMSB, rows, 3, "0001", "", "", "", "")
	expectRow(t, ReadMSB, rows, 4, "", "0110", "1001", "", "")
	expectRow(t, ReadMSB, rows, 5, "", "", "", "0110", "1001")
	if ReadMSB.SROs() != 2 {
		t.Errorf("MSB read uses %d SROs, want 2", ReadMSB.SROs())
	}
}

func TestTruthTableAllOps(t *testing.T) {
	// Paper Table 1, basic ParaBit: final OUT vector must match the truth
	// table for every operation.
	want := map[Op]string{
		OpAnd: "1000", OpOr: "1101", OpXnor: "1010", OpNand: "0111",
		OpNor: "0010", OpXor: "0101", OpNotLSB: "0011", OpNotMSB: "0110",
	}
	for op, w := range want {
		got := FinalOut(ForOp(op), false)
		if got.String() != w {
			t.Errorf("%v: OUT=%s, want %s", op, got, w)
		}
		// Cross-check the declared table against Op.Eval.
		tt := op.TruthTable()
		for s := E; s <= S3; s++ {
			if got[s] != tt[s] {
				t.Errorf("%v in state %v: circuit=%v, truth table=%v", op, s, got[s], tt[s])
			}
		}
	}
}

func TestAndSequenceFig5a(t *testing.T) {
	rows := RunSymbolic(ForOp(OpAnd), false)
	expectRow(t, ForOp(OpAnd), rows, 1, "0111", "", "", "", "")
	expectRow(t, ForOp(OpAnd), rows, 2, "", "0111", "1000", "", "")
	expectRow(t, ForOp(OpAnd), rows, 3, "", "", "", "0111", "1000")
}

func TestOrSequenceFig5b(t *testing.T) {
	rows := RunSymbolic(ForOp(OpOr), false)
	expectRow(t, ForOp(OpOr), rows, 2, "", "0011", "1100", "", "")
	expectRow(t, ForOp(OpOr), rows, 4, "", "0010", "1101", "", "")
	expectRow(t, ForOp(OpOr), rows, 5, "", "", "", "0010", "1101")
}

func TestXnorSequenceFig6(t *testing.T) {
	seq := ForOp(OpXnor)
	rows := RunSymbolic(seq, false)
	expectRow(t, seq, rows, 2, "", "0111", "1000", "", "")  // step 1
	expectRow(t, seq, rows, 3, "", "", "", "0111", "1000")  // step 2
	expectRow(t, seq, rows, 5, "", "1111", "0000", "", "")  // step 3
	expectRow(t, seq, rows, 7, "", "1100", "0011", "", "")  // step 4
	expectRow(t, seq, rows, 9, "", "1101", "0010", "", "")  // step 5
	expectRow(t, seq, rows, 10, "", "", "", "0101", "1010") // step 6
	if seq.SROs() != 4 {
		t.Errorf("XNOR uses %d SROs, want 4", seq.SROs())
	}
}

func TestNandSequenceTable2(t *testing.T) {
	seq := ForOp(OpNand)
	rows := RunSymbolic(seq, false)
	expectRow(t, seq, rows, 0, "", "1111", "0000", "1111", "0000") // row 1
	expectRow(t, seq, rows, 2, "", "1000", "0111", "1111", "0000") // row 2
	expectRow(t, seq, rows, 3, "", "1000", "0111", "1000", "0111") // row 3
}

func TestNorSequenceTable3(t *testing.T) {
	seq := ForOp(OpNor)
	rows := RunSymbolic(seq, false)
	expectRow(t, seq, rows, 2, "", "1100", "0011", "1111", "0000") // row 2
	expectRow(t, seq, rows, 4, "", "1101", "0010", "1111", "0000") // row 3
	expectRow(t, seq, rows, 5, "", "1101", "0010", "1101", "0010") // row 4
}

func TestXorSequenceTable4(t *testing.T) {
	seq := ForOp(OpXor)
	rows := RunSymbolic(seq, false)
	expectRow(t, seq, rows, 2, "", "1110", "0001", "1111", "0000")  // row 2
	expectRow(t, seq, rows, 3, "", "1110", "0001", "1110", "0001")  // row 3
	expectRow(t, seq, rows, 5, "", "1111", "0000", "1110", "0001")  // row 4
	expectRow(t, seq, rows, 7, "", "1000", "0111", "1110", "0001")  // row 5
	expectRow(t, seq, rows, 9, "", "1011", "0100", "1110", "0001")  // row 6
	expectRow(t, seq, rows, 10, "", "1011", "0100", "1010", "0101") // row 7
	if seq.SROs() != 4 {
		t.Errorf("XOR uses %d SROs, want 4", seq.SROs())
	}
}

func TestNotSequencesTable5(t *testing.T) {
	lsb := ForOp(OpNotLSB)
	rows := RunSymbolic(lsb, false)
	expectRow(t, lsb, rows, 2, "", "1100", "0011", "1111", "0000")
	expectRow(t, lsb, rows, 3, "", "1100", "0011", "1100", "0011")

	msb := ForOp(OpNotMSB)
	rows = RunSymbolic(msb, false)
	expectRow(t, msb, rows, 2, "", "1000", "0111", "1111", "0000")
	expectRow(t, msb, rows, 4, "", "1001", "0110", "1111", "0000")
	expectRow(t, msb, rows, 5, "", "1001", "0110", "1001", "0110")
}

// TestSROCounts pins the shape of the paper's tables (Fig. 3, Figs. 5–7,
// Tables 2–5): each basic sequence's step count and SRO count. The SRO
// counts drive the latency model: 25 µs per SRO gives the paper's "XNOR
// and XOR take 100 µs" (§5.2).
func TestSROCounts(t *testing.T) {
	for _, tc := range []struct {
		seq         Sequence
		steps, sros int
	}{
		{ReadLSB, 4, 1},
		{ReadMSB, 6, 2},
		{ForOp(OpAnd), 4, 1},
		{ForOp(OpOr), 6, 2},
		{ForOp(OpXnor), 11, 4},
		{ForOp(OpNand), 4, 1},
		{ForOp(OpNor), 6, 2},
		{ForOp(OpXor), 11, 4},
		{ForOp(OpNotLSB), 4, 1},
		{ForOp(OpNotMSB), 6, 2},
	} {
		if got := len(tc.seq.Steps); got != tc.steps {
			t.Errorf("%s: %d steps, want %d", tc.seq.Name, got, tc.steps)
		}
		if got := tc.seq.SROs(); got != tc.sros {
			t.Errorf("%s: %d SROs, want %d", tc.seq.Name, got, tc.sros)
		}
	}
}

func TestLocFreeAndTable6(t *testing.T) {
	seq := ForOpLocFree(OpAnd)
	// Table 6: after the MSB read, L(A)=1001. With LSB=1 on wordline 1,
	// SO=0 and A stays 1001; with LSB=0, SO=1 and A collapses to 0000.
	for _, tc := range []struct {
		lsb     bool
		aAfter  string
		bAfter  string
		outWant string
	}{
		{true, "1001", "0110", "1001"},
		{false, "0000", "1111", "0000"},
	} {
		rows := RunSymbolic(seq, tc.lsb)
		// Step index 4 is the end of the MSB read (A = 1001).
		expectRow(t, seq, rows, 4, "", "0110", "1001", "", "")
		// Step index 6 is after the LSB sense + M2.
		expectRow(t, seq, rows, 6, "", "", tc.aAfter, "", "")
		expectRow(t, seq, rows, 7, "", "", "", tc.bAfter, tc.outWant)
	}
}

func TestLocFreeOrTable7(t *testing.T) {
	seq := ForOpLocFree(OpOr)
	for _, tc := range []struct {
		lsb     bool
		bAfter  string
		outWant string
	}{
		{true, "0000", "1111"},
		{false, "0110", "1001"},
	} {
		rows := RunSymbolic(seq, tc.lsb)
		// After parking M in L2: B=0110, OUT=1001 (Table 7 initial column).
		expectRow(t, seq, rows, 5, "", "", "", "0110", "1001")
		last := len(rows) - 1
		expectRow(t, seq, rows, last, "", "", "", tc.bAfter, tc.outWant)
	}
}

func TestLocFreeAllOpsAllCombinations(t *testing.T) {
	// Exhaustive: operand M is the MSB of a wordline-0 cell in any of the
	// four states; operand N is the LSB of a wordline-1 cell in any state.
	for _, op := range Ops {
		seq := ForOpLocFree(op)
		for s0 := E; s0 <= S3; s0++ {
			for s1 := E; s1 <= S3; s1++ {
				c := NewCircuit(CellSensor{s0, s1})
				got := c.Run(seq)
				m, n := s0.MSB(), s1.LSB()
				var want bool
				switch op {
				case OpNotLSB:
					want = !n
				case OpNotMSB:
					want = !m
				default:
					want = op.Eval(n, m)
				}
				if got != want {
					t.Errorf("%v locfree with M=%v N=%v (states %v,%v): OUT=%v, want %v",
						op, m, n, s0, s1, got, want)
				}
			}
		}
	}
}

func TestLocFreeInverterUsage(t *testing.T) {
	// §4.2/Fig. 8: XOR (and the inverted family) needs the added inverter;
	// AND and OR do not.
	wantInv := map[Op]bool{
		OpAnd: false, OpOr: false, OpXor: true,
		OpNand: true, OpNor: true, OpXnor: true,
		OpNotLSB: false, OpNotMSB: false,
	}
	for op, want := range wantInv {
		if got := RequiresInverter(op); got != want {
			t.Errorf("%v: RequiresInverter=%v, want %v", op, got, want)
		}
	}
}

func TestLocFreeSROCounts(t *testing.T) {
	// LocFree trades reallocation for extra senses: AND needs 3 (2 for the
	// MSB operand + 1 for the LSB operand); XOR needs 6 (two phases).
	want := map[Op]int{
		OpAnd: 3, OpOr: 3, OpXor: 6, OpNand: 3, OpNor: 3, OpXnor: 6,
		OpNotLSB: 1, OpNotMSB: 2,
	}
	for op, n := range want {
		if got := ForOpLocFree(op).SROs(); got != n {
			t.Errorf("%v locfree: %d SROs, want %d", op, got, n)
		}
	}
}

// Property: for random operand bits, the basic circuit computes the same
// value as the plain boolean operation, for every op. This is the bridge
// that lets the flash package use word-wide kernels on the hot path.
func TestCircuitMatchesBooleanProperty(t *testing.T) {
	f := func(lsb, msb bool, opIdx uint8) bool {
		op := Ops[int(opIdx)%len(Ops)]
		cell := FromBits(lsb, msb)
		c := NewCircuit(CellSensor{cell})
		return c.Run(ForOp(op)) == op.Eval(lsb, msb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestReadSequencesRecoverBits(t *testing.T) {
	for s := E; s <= S3; s++ {
		c := NewCircuit(CellSensor{s})
		if got := c.Run(ReadLSB); got != s.LSB() {
			t.Errorf("LSB read of %v = %v, want %v", s, got, s.LSB())
		}
		c = NewCircuit(CellSensor{s})
		if got := c.Run(ReadMSB); got != s.MSB() {
			t.Errorf("MSB read of %v = %v, want %v", s, got, s.MSB())
		}
	}
}

func TestCellSensorPanicsOnBadWordline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sensing a missing wordline did not panic")
		}
	}()
	CellSensor{E}.Sense(1, VRead2)
}

func TestVecParse(t *testing.T) {
	if Vec("1010").String() != "1010" {
		t.Fatal("Vec round-trip failed")
	}
	for _, bad := range []string{"101", "10101", "10a0"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Vec(%q) did not panic", bad)
				}
			}()
			Vec(bad)
		}()
	}
}

func TestFormatTableContainsVectors(t *testing.T) {
	rows := RunSymbolic(ForOp(OpAnd), false)
	out := FormatTable(ForOp(OpAnd), rows)
	for _, want := range []string{"AND", "SENSE wl0 @VREAD1", "1000"} {
		if !contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestLatchComplementInvariant: the two latches are cross-coupled
// inverter pairs, so A == NOT C and OUT == NOT B must hold after every
// step of every sequence, for every cell state — the structural invariant
// the paper's circuit relies on.
func TestLatchComplementInvariant(t *testing.T) {
	check := func(seq Sequence, cells CellSensor) {
		t.Helper()
		c := NewCircuit(cells)
		for si, st := range seq.Steps {
			c.Apply(st)
			if c.A == c.C {
				t.Fatalf("%s step %d (%v): A == C == %v", seq.Name, si, st, c.A)
			}
			if c.Out == c.B {
				t.Fatalf("%s step %d (%v): OUT == B == %v", seq.Name, si, st, c.Out)
			}
		}
	}
	for s0 := E; s0 <= S3; s0++ {
		for s1 := E; s1 <= S3; s1++ {
			cells := CellSensor{s0, s1}
			check(ReadLSB, cells)
			check(ReadMSB, cells)
			for _, op := range Ops {
				check(ForOp(op), cells)
				check(ForOpLocFree(op), cells)
				check(lsbSeqs[op], cells)
			}
		}
	}
}

// TestRandomStepSequencesKeepInvariant: even arbitrary (possibly
// meaningless) control programs never break latch complementarity, as
// long as they start with an initialization.
func TestRandomStepSequencesKeepInvariant(t *testing.T) {
	f := func(seed int64, stepsRaw []uint8) bool {
		cells := CellSensor{State(uint8(seed) % 4), State(uint8(seed>>8) % 4)}
		c := NewCircuit(cells)
		c.Apply(Step{Kind: StepInit})
		for _, raw := range stepsRaw {
			kind := StepKind(raw % 8)
			st := Step{Kind: kind}
			if kind == StepSense {
				st.V = Vref(raw / 8 % 4)
				st.WL = int(raw / 32 % 2)
				st.Inverted = raw >= 128
			}
			c.Apply(st)
			if c.A == c.C || c.Out == c.B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTLCSequencesKeepInvariant extends the invariant to the TLC
// sequences.
func TestTLCSequencesKeepInvariant(t *testing.T) {
	for s := TE; s < numTLCStates; s++ {
		for _, seq := range []Sequence{
			TLCReadSequence(TLCLSB), TLCReadSequence(TLCCSB), TLCReadSequence(TLCMSB),
			tlcSeqs[TLCAnd3], tlcSeqs[TLCOr3], tlcSeqs[TLCNand3], tlcSeqs[TLCNor3],
		} {
			c := NewCircuit(TLCCellSensor{s})
			for si, st := range seq.Steps {
				c.Apply(st)
				if c.A == c.C || c.Out == c.B {
					t.Fatalf("%s step %d on %v: invariant broken", seq.Name, si, s)
				}
			}
		}
	}
}
