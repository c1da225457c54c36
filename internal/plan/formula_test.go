package plan

import (
	"testing"

	"parabit/internal/nvme"
)

// wireExprs are wire-expressible queries: one term, and two to four
// terms under every kind of extra-batch operation.
var wireExprs = []string{
	"1 & 2",
	"(1 & 2) | (3 & 4)",
	"(1 ^ 2) & (3 | 4) & (5 ~^ 6)",
	"(1 ~& 2) ^ (3 ~| 4)",
	"(1 & 2) ~& (3 | 4)",
	"(1 | 2) ^ (3 & 4) ^ (5 ~& 6) ^ (7 & 8)",
}

// TestWarmLiftAllocatesNothing pins the host's lowering to a formula and
// the lift of parsed batches into a node arena at zero allocations once
// the formula's slices and the arena are warm.
func TestWarmLiftAllocatesNothing(t *testing.T) {
	const ps = 512
	var f nvme.Formula
	var a Arena
	for _, s := range wireExprs {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		lower := func() {
			var ok bool
			if f, ok = AppendFormula(nvme.Formula{Terms: f.Terms[:0], Combine: f.Combine[:0]}, n, ps); !ok {
				t.Fatalf("%s: not wire-expressible", s)
			}
		}
		lower()
		batches, err := nvme.RoundTrip(f, ps)
		if err != nil {
			t.Fatal(err)
		}
		lift := func() {
			if _, err := a.FromBatches(batches, ps); err != nil {
				t.Fatal(err)
			}
		}
		lift()
		if allocs := testing.AllocsPerRun(50, lower); allocs != 0 {
			t.Fatalf("%s: warm AppendFormula allocates %v times", s, allocs)
		}
		if allocs := testing.AllocsPerRun(50, lift); allocs != 0 {
			t.Fatalf("%s: warm Arena.FromBatches allocates %v times", s, allocs)
		}
	}
}

// TestLiftKeepsNormalForm checks that the lift of a normalized query's
// formula is that query, in a form Normalize returns as is: a device
// compiles the lifted tree without rebuilding it. The package-level
// FromBatches lifts the same tree.
func TestLiftKeepsNormalForm(t *testing.T) {
	const ps = 512
	var a Arena
	for _, s := range wireExprs {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := ToFormula(n, ps)
		if !ok {
			t.Fatalf("%s: not wire-expressible", s)
		}
		batches, err := nvme.RoundTrip(f, ps)
		if err != nil {
			t.Fatal(err)
		}
		lifted, err := a.FromBatches(batches, ps)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := Normalize(lifted); err != nil || again != lifted {
			t.Fatalf("%s: Normalize rebuilt the lifted tree %s as %s (%v)", s, lifted, again, err)
		}
		if lifted.Key() != n.Key() {
			t.Fatalf("%s: lifted %s, want %s", s, lifted.Key(), n.Key())
		}
		fresh, err := FromBatches(batches, ps)
		if err != nil || fresh.String() != lifted.String() {
			t.Fatalf("%s: FromBatches lifted %v (%v), the arena %v", s, fresh, err, lifted)
		}
	}
}
