//go:build !race

// The race detector's instrumentation allocates during construction, so
// the construction ceilings hold only in a plain build; CI runs them in
// its allocation step, which builds without -race.

package cluster

import "testing"

// TestNewAllocationCeiling pins what building a 4-shard, 2-replica
// cluster allocates: its shards' devices, schedulers and queue pairs and
// the placement ring, with nothing preallocated for traffic.
func TestNewAllocationCeiling(t *testing.T) {
	cfg := Config{Shards: 4, Replicas: 2}
	const ceiling = 518
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("cluster.New(4 shards, 2 replicas) allocates %v times, ceiling %d", allocs, ceiling)
	}
}
