package latch

import "strings"

// Vec4 is the paper's symbolic notation L(X) = x1 x2 x3 x4: the logic value
// at a node for each possible state (E, S1, S2, S3) of the cell being
// sensed. The paper's tables print these vectors after each control step;
// the symbolic runner below reconstructs them by executing a sequence on
// four concrete circuits, one per state.
type Vec4 [numStates]bool

// Vec parses a 4-character "1010"-style vector, as printed in the paper.
func Vec(s string) Vec4 {
	if len(s) != numStates {
		panic("latch: Vec wants exactly 4 characters")
	}
	var v Vec4
	for i := 0; i < numStates; i++ {
		switch s[i] {
		case '0':
		case '1':
			v[i] = true
		default:
			panic("latch: Vec characters must be 0 or 1")
		}
	}
	return v
}

func (v Vec4) String() string {
	var b strings.Builder
	for _, x := range v {
		if x {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SymbolicRow is the symbolic circuit state after one control step: the
// vectors the paper prints as one table row.
type SymbolicRow struct {
	Step Step
	SO   Vec4
	A    Vec4
	C    Vec4
	B    Vec4
	Out  Vec4
}

// RunSymbolic executes the sequence over all four states of the wordline-0
// cell and returns one row per step. For location-free sequences, lsb2
// fixes the LSB bit of the wordline-1 cell (its other bit is irrelevant);
// basic sequences never sense wordline 1, so lsb2 is ignored for them.
func RunSymbolic(seq Sequence, lsb2 bool) []SymbolicRow {
	// One concrete circuit per possible state of the first cell.
	circuits := make([]*Circuit, numStates)
	for s := E; s <= S3; s++ {
		cells := CellSensor{s, FromBits(lsb2, true)}
		circuits[s] = NewCircuit(cells)
	}
	rows := make([]SymbolicRow, len(seq.Steps))
	for i, st := range seq.Steps {
		rows[i].Step = st
		for s := E; s <= S3; s++ {
			c := circuits[s]
			c.Apply(st)
			rows[i].SO[s] = c.SO
			rows[i].A[s] = c.A
			rows[i].C[s] = c.C
			rows[i].B[s] = c.B
			rows[i].Out[s] = c.Out
		}
	}
	return rows
}

// FinalOut runs the sequence symbolically and returns the OUT vector after
// the last step — the column the paper's truth table (Table 1) specifies.
func FinalOut(seq Sequence, lsb2 bool) Vec4 {
	rows := RunSymbolic(seq, lsb2)
	if len(rows) == 0 {
		return Vec4{}
	}
	return rows[len(rows)-1].Out
}

// FormatTable renders symbolic rows in the paper's table layout, one line
// per step with the node vectors. Used by the latch directive of
// parabit-bench -replay and by test failure output.
func FormatTable(seq Sequence, rows []SymbolicRow) string {
	var b strings.Builder
	b.WriteString(seq.Name)
	b.WriteString("\n  step                 L(SO)  L(C)  L(A)  L(B)  L(OUT)\n")
	for _, r := range rows {
		b.WriteString("  ")
		name := r.Step.String()
		b.WriteString(name)
		for i := len(name); i < 21; i++ {
			b.WriteByte(' ')
		}
		so := "----"
		if r.Step.Kind == StepSense {
			so = r.SO.String()
		}
		b.WriteString(so)
		b.WriteString("   ")
		b.WriteString(r.C.String())
		b.WriteString("  ")
		b.WriteString(r.A.String())
		b.WriteString("  ")
		b.WriteString(r.B.String())
		b.WriteString("  ")
		b.WriteString(r.Out.String())
		b.WriteByte('\n')
	}
	return b.String()
}
