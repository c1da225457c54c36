package cluster

import (
	"testing"

	"parabit/internal/plan"
	"parabit/internal/ssd"
)

// TestColocatedQueryAllocationCeiling bounds the host allocations of a
// colocated query end to end — admission, colocation, routing, the shard
// scheduler, planning and the device — on the shard-local and the wire
// route. Admission, colocation, planning and the wire crossing allocate
// nothing: the leaf buffer, the command streams, the parsed batches and
// the lifted tree live in the cluster's route scratch, and the shard
// compiles the tree over its pages in reused scratch. Either route
// allocates its ticket and its result page.
func TestColocatedQueryAllocationCeiling(t *testing.T) {
	pages := diffPages(4, ssd.SmallConfig().Geometry.PageSize, 7)
	c := clusterFor(t, true, pages)
	k := plan.Leaf
	cases := []struct {
		name    string
		e       *plan.Expr
		route   Route
		ceiling float64
	}{
		{"and4", plan.And(k(1), k(2), k(3), k(4)), RouteLocal, 2},
		// The wire route crosses the NVMe encoding once, at the shard's
		// queue pair, and lifts the parsed batches into the scratch's
		// node arena.
		{"and2", plan.And(k(1), k(2)), RouteWire, 2},
	}
	for _, tc := range cases {
		res, err := c.Query("t", tc.e, ssd.SchemeLocFree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Route != tc.route {
			t.Fatalf("%s routed %s, want %s", tc.name, res.Route, tc.route)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Query("t", tc.e, ssd.SchemeLocFree); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Fatalf("%s: colocated Cluster.Query allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
		}
	}
}

// TestWriteColumnAllocationCeiling bounds the host allocations of a
// column overwrite on two replicas: one ticket per replica and the two
// the device's write path takes per page. Admission, the replica targets
// and the tickets' bookkeeping allocate nothing.
func TestWriteColumnAllocationCeiling(t *testing.T) {
	c := MustNew(Config{Shards: 4, Replicas: 2})
	page := make([]byte, c.PageSize())
	if _, err := c.WriteColumn("t", 1, page); err != nil {
		t.Fatal(err)
	}
	const ceiling = 4
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.WriteColumn("t", 1, page); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("WriteColumn allocates %v times, ceiling %d", allocs, ceiling)
	}
}

// TestColocatedShardMapsLeavesInOrder pins the positional contract
// between colocatedShard and execLocal: keys come back as the chosen
// shard's local pages, one per key, in order.
func TestColocatedShardMapsLeavesInOrder(t *testing.T) {
	pages := diffPages(4, ssd.SmallConfig().Geometry.PageSize, 3)
	c := clusterFor(t, true, pages)
	keys := []uint64{3, 1, 4, 1}
	sh, err := c.colocatedShard(&routeScratch{leaves: keys})
	if err != nil || sh == nil {
		t.Fatalf("colocatedShard = %v, %v; want a shard", sh, err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, key := range []uint64{3, 1, 4, 1} {
		r, ok := c.columns[key].replicaOnLocked(sh.id)
		if !ok || keys[i] != r.lpn {
			t.Fatalf("leaf %d (key %d) mapped to %d, want shard %d page %d", i, key, keys[i], sh.id, r.lpn)
		}
	}
}
