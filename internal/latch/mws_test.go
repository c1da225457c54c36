package latch

import (
	"reflect"
	"testing"
)

// TestMWSProgramTable pins the shared MWS program table: every legal
// (op, k) yields exactly the program ForOpMWS builds, validated and
// sensing once; everything else — inside the table or outside it — is
// refused, and a lookup allocates nothing.
func TestMWSProgramTable(t *testing.T) {
	for op := Op(0); op <= numOps; op++ {
		for k := -1; k <= MaxMWSOperands+3; k++ {
			seq, err := MWSProgram(op, k)
			legal := MWSComputable(op) && k >= 2 && k <= MaxMWSOperands
			if legal != (err == nil) {
				t.Fatalf("MWSProgram(%v, %d) err = %v, legal = %v", op, k, err, legal)
			}
			if legal && !reflect.DeepEqual(seq, ForOpMWS(op, k)) {
				t.Fatalf("MWSProgram(%v, %d) = %+v, want ForOpMWS's program", op, k, seq)
			}
			if legal && seq.SROs() != 1 {
				t.Fatalf("MWSProgram(%v, %d) senses %d times, want 1", op, k, seq.SROs())
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := MWSProgram(OpNor, MaxMWSOperands); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("MWSProgram allocates %v times per lookup", allocs)
	}
}
