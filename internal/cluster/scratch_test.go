package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"parabit/internal/plan"
	"parabit/internal/ssd"
)

// TestRouteScratchUnderTraffic runs wire, local and scatter queries from
// eight goroutines at once on a 4×2 cluster, so route scratch passes
// between goroutines through the free list while other queries' shard
// tickets are in flight, and a scattered query reuses its scratch for
// sub-routes that cross the wire. Every result must equal the software
// fold. CI's "Handle soak (race)" step runs it under -race.
func TestRouteScratchUnderTraffic(t *testing.T) {
	pages := diffPages(12, ssd.SmallConfig().Geometry.PageSize, 11)
	// Keys 1..4 share a placement group; 5..12 spread over the ring.
	c, err := New(Config{Shards: 4, Replicas: 2, PlacementOf: func(key uint64) uint64 {
		if key <= 4 {
			return 0
		}
		return key
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if _, err := c.WriteColumn("t", uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	k := plan.Leaf
	queries := []*plan.Expr{
		plan.And(k(1), k(2)),
		plan.Or(plan.And(k(1), k(2)), plan.Xor(k(3), k(4))),
		plan.Nand(k(3), k(4)),
		plan.And(k(1), k(2), k(3)),
		plan.And(plan.Or(k(1), k(2)), plan.Not(k(3))),
	}
	// Spread keys on disjoint replica sets scatter.
search:
	for i := uint64(5); i <= 12; i++ {
		for j := i + 1; j <= 12; j++ {
			if sh, err := c.colocatedShard(&routeScratch{leaves: []uint64{i, j}}); err == nil && sh == nil {
				queries = append(queries, plan.Xor(k(i), k(j)), plan.And(plan.Or(k(1), k(2)), plan.Xor(k(i), k(j))))
				break search
			}
		}
	}
	want := make([][]byte, len(queries))
	routes := make([]Route, len(queries))
	seen := map[Route]bool{}
	for i, q := range queries {
		res, err := c.Query("t", q, ssd.SchemeLocFree)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[i], routes[i] = softwareGolden(t, pages, q), res.Route
		seen[res.Route] = true
	}
	if !seen[RouteWire] || !seen[RouteLocal] || !seen[RouteScatter] {
		t.Fatalf("routes %v, want wire, local and scatter", routes)
	}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < perG; it++ {
				i := (g + it) % len(queries)
				res, err := c.Query("t", queries[i], ssd.SchemeLocFree)
				if err == nil && res.Route != routes[i] {
					err = fmt.Errorf("routed %s, want %s", res.Route, routes[i])
				}
				if err == nil && !bytes.Equal(res.Data, want[i]) {
					err = fmt.Errorf("result differs from the software fold")
				}
				if err != nil {
					t.Errorf("goroutine %d query %s: %v", g, queries[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
