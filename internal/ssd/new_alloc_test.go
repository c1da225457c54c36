//go:build !race

// The race detector's instrumentation allocates during construction, so
// the construction ceilings hold only in a plain build; CI runs them in
// its allocation step, which builds without -race.

package ssd

import "testing"

// TestNewAllocationCeiling pins what building a small device allocates.
// Scratch that queries, reductions and the planner reuse grows on first
// use, never at construction: a device that only stores pages should not
// pay for it, and a cluster builds one device per shard.
func TestNewAllocationCeiling(t *testing.T) {
	cfg := SmallConfig()
	const ceiling = 76
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("ssd.New(SmallConfig()) allocates %v times, ceiling %d", allocs, ceiling)
	}
}
