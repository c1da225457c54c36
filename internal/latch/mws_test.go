package latch

import "testing"

// TestMWSProgramTable pins the shared MWS program table: every legal
// (op, k) holds the cost of the program forOpMWS builds, which validates
// and senses once across all k wordlines; everything else — inside the
// table or outside it — is refused.
func TestMWSProgramTable(t *testing.T) {
	for op := Op(0); op <= numOps; op++ {
		for k := -1; k <= MaxMWSOperands+3; k++ {
			p := mwsAt(op, k)
			legal := MWSComputable(op) && k >= 2 && k <= MaxMWSOperands
			if legal != (p.err == nil) {
				t.Fatalf("mwsAt(%v, %d) err = %v, legal = %v", op, k, p.err, legal)
			}
			if !legal {
				continue
			}
			seq := forOpMWS(op, k)
			if err := seq.Validate(); err != nil || seq.SROs() != 1 {
				t.Fatalf("forOpMWS(%v, %d) senses %d times, validation %v; want 1, nil", op, k, seq.SROs(), err)
			}
			if p.cost.SROs != 1 || p.cost.MWS != k {
				t.Fatalf("mwsAt(%v, %d) priced at %d SROs over %d wordlines, want 1 over %d", op, k, p.cost.SROs, p.cost.MWS, k)
			}
		}
	}
}
