package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parabit/internal/persist"
	"parabit/internal/plan"
	"parabit/internal/ssd"
)

// The differential suite is the cluster's correctness anchor: for every
// expression shape and execution scheme, the sharded result must be
// byte-identical to (a) a single-device execution of the same expression
// and (b) the software golden Eval — whether the query routed over the
// wire, shard-locally, or scattered with host-side combine.

// diffPages builds deterministic operand pages.
func diffPages(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, size)
		if _, err := rng.Read(pages[i]); err != nil {
			panic(err)
		}
	}
	return pages
}

// diffShapes enumerates query shapes over column keys 1..4.
func diffShapes() map[string]*plan.Expr {
	k := func(i uint64) *plan.Expr { return plan.Leaf(i) }
	return map[string]*plan.Expr{
		"and2":   plan.And(k(1), k(2)),
		"or2":    plan.Or(k(1), k(2)),
		"xor2":   plan.Xor(k(1), k(2)),
		"xnor2":  plan.Xnor(k(1), k(2)),
		"nand2":  plan.Nand(k(1), k(2)),
		"nor2":   plan.Nor(k(1), k(2)),
		"not":    plan.Not(k(1)),
		"and4":   plan.And(k(1), k(2), k(3), k(4)),
		"nested": plan.Or(plan.And(k(1), k(2)), plan.Xor(k(3), k(4))),
		"mixed":  plan.And(plan.Or(k(1), k(2)), plan.Not(k(3))),
	}
}

// singleDeviceGolden executes the expression on one bare device holding
// the same pages (key i at LPN i-1).
func singleDeviceGolden(t *testing.T, pages [][]byte, e *plan.Expr, scheme ssd.Scheme) []byte {
	t.Helper()
	dev := ssd.MustNew(ssd.SmallConfig())
	for i, p := range pages {
		if _, err := dev.WritePages(persist.OpWriteOnPlane, 0, []uint64{uint64(i)}, [][]byte{p}, 0); err != nil {
			t.Fatalf("golden write %d: %v", i, err)
		}
	}
	local, err := plan.Normalize(e)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	shifted := local.MapLeaves(func(key uint64) uint64 { return key - 1 })
	res, err := dev.ExecuteQuery(shifted, scheme, 0)
	if err != nil {
		t.Fatalf("golden query: %v", err)
	}
	return res.Data
}

// softwareGolden evaluates the expression in plain host software.
func softwareGolden(t *testing.T, pages [][]byte, e *plan.Expr) []byte {
	t.Helper()
	out, err := e.Eval(func(key uint64) ([]byte, error) {
		if key < 1 || key > uint64(len(pages)) {
			return nil, fmt.Errorf("no key %d", key)
		}
		return pages[key-1], nil
	})
	if err != nil {
		t.Fatalf("software eval: %v", err)
	}
	return out
}

func clusterFor(t *testing.T, colocate bool, pages [][]byte) *Cluster {
	t.Helper()
	cfg := Config{Shards: 4, Replicas: 2}
	if colocate {
		cfg.PlacementOf = func(key uint64) uint64 { return 0 }
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for i, p := range pages {
		if _, err := c.WriteColumn("t", uint64(i+1), p); err != nil {
			t.Fatalf("cluster write %d: %v", i, err)
		}
	}
	return c
}

func TestDifferentialShardedMatchesSingleDevice(t *testing.T) {
	pageSize := ssd.SmallConfig().Geometry.PageSize
	pages := diffPages(4, pageSize, 7)
	for _, scheme := range ssd.Schemes {
		for _, colocate := range []bool{true, false} {
			c := clusterFor(t, colocate, pages)
			for name, e := range diffShapes() {
				label := fmt.Sprintf("%s/scheme%d/colocate=%v", name, scheme, colocate)
				want := softwareGolden(t, pages, e)
				device := singleDeviceGolden(t, pages, e, scheme)
				if !bytes.Equal(device, want) {
					t.Fatalf("%s: single device diverges from software golden", label)
				}
				got, err := c.Query("t", e, scheme)
				if err != nil {
					t.Fatalf("%s: cluster query: %v", label, err)
				}
				if !bytes.Equal(got.Data, want) {
					t.Fatalf("%s: cluster (%s route) diverges from golden", label, got.Route)
				}
			}
		}
	}
}

// TestDifferentialRoutes pins the routing decisions: colocated placement
// sends wire-expressible shapes over the NVMe queue pair and everything
// else shard-local; spread-out operands scatter.
func TestDifferentialRoutes(t *testing.T) {
	pageSize := ssd.SmallConfig().Geometry.PageSize
	pages := diffPages(4, pageSize, 11)

	co := clusterFor(t, true, pages)
	res, err := co.Query("t", plan.And(plan.Leaf(1), plan.Leaf(2)), ssd.SchemeLocFree)
	if err != nil {
		t.Fatalf("colocated query: %v", err)
	}
	if res.Route != RouteWire {
		t.Fatalf("binary colocated query routed %s, want %s", res.Route, RouteWire)
	}
	res, err = co.Query("t", plan.Not(plan.Leaf(1)), ssd.SchemeReAlloc)
	if err != nil {
		t.Fatalf("colocated NOT: %v", err)
	}
	if res.Route != RouteLocal {
		t.Fatalf("NOT query routed %s, want %s", res.Route, RouteLocal)
	}

	// Spread placement: find two keys with disjoint replica sets so the
	// query must scatter.
	sp := clusterFor(t, false, pages)
	var a, b uint64
search:
	for i := uint64(1); i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			if sh, err := sp.colocatedShard(&routeScratch{leaves: []uint64{i, j}}); err == nil && sh == nil {
				a, b = i, j
				break search
			}
		}
	}
	if a == 0 {
		t.Skip("all key pairs colocated under this ring layout")
	}
	res, err = sp.Query("t", plan.Xor(plan.Leaf(a), plan.Leaf(b)), ssd.SchemePreAlloc)
	if err != nil {
		t.Fatalf("scattered query: %v", err)
	}
	if res.Route != RouteScatter {
		t.Fatalf("disjoint-operand query routed %s, want %s", res.Route, RouteScatter)
	}
	want := softwareGolden(t, pages, plan.Xor(plan.Leaf(a), plan.Leaf(b)))
	if !bytes.Equal(res.Data, want) {
		t.Fatal("scattered result diverges from software golden")
	}
}

// TestDifferentialWireStats confirms wire-routed queries really crossed
// the transport: the serving shard's queue pair drained entries.
func TestDifferentialWireStats(t *testing.T) {
	pageSize := ssd.SmallConfig().Geometry.PageSize
	pages := diffPages(2, pageSize, 13)
	c := clusterFor(t, true, pages)
	if _, err := c.Query("t", plan.And(plan.Leaf(1), plan.Leaf(2)), ssd.SchemeLocFree); err != nil {
		t.Fatalf("query: %v", err)
	}
	var drained int64
	c.EachShard(func(sh *Shard) { drained += sh.QueuePair().Stats().Drained })
	if drained == 0 {
		t.Fatal("wire-routed query left no transport traffic")
	}
}
