package ssd

import (
	"bytes"
	"fmt"
	"testing"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// refEval evaluates an expression against a test-side content map — the
// software reference every query result must match bit-exactly.
func refEval(t *testing.T, e *plan.Expr, content map[uint64][]byte) []byte {
	t.Helper()
	out, err := e.Eval(func(lpn uint64) ([]byte, error) {
		p, ok := content[lpn]
		if !ok {
			return nil, fmt.Errorf("no reference content for lpn %d", lpn)
		}
		return p, nil
	})
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	return out
}

func mustParse(t *testing.T, s string) *plan.Expr {
	t.Helper()
	e, err := plan.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return e
}

func TestQueryMatchesSoftwareReference(t *testing.T) {
	d := newDevice(t)
	content := map[uint64][]byte{}
	for lpn := uint64(1); lpn <= 8; lpn++ {
		content[lpn] = randPage(d, int64(1000+lpn))
		if _, err := d.WriteOperand(lpn, content[lpn], 0); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"1 & 2",
		"1 & 2 & 3 & 4",
		"(1 | 2) ^ (3 & 4)",
		"!(1 ^ 2) | (5 ~& 6)",
		"(1 ~| 7) ~^ (2 & 8)",
		"((1 & 2 & 3 & 4 & 5 & 6 & 7) | 8) ^ 2",
		"1 | 2 | 3 | 4 | 5",
		"1 ^ 2 ^ 3",
	}
	for _, scheme := range Schemes {
		for _, q := range queries {
			e := mustParse(t, q)
			res, err := d.ExecuteQuery(e, scheme, 0)
			if err != nil {
				t.Fatalf("%v %q: %v", scheme, q, err)
			}
			if !bytes.Equal(res.Data, refEval(t, e, content)) {
				t.Errorf("%v %q: result differs from software reference", scheme, q)
			}
		}
	}
	st := d.QueryStats()
	if st.Queries != int64(len(Schemes)*len(queries)) {
		t.Errorf("Queries = %d, want %d", st.Queries, len(Schemes)*len(queries))
	}
	if st.FusedChains == 0 {
		t.Error("no fused chains across chained queries")
	}
	// The device compiles the tree it is given: a query crosses the
	// NVMe encoding only at the host boundary, never inside the device.
	if st.NVMeRoundTrips != 0 {
		t.Errorf("NVMeRoundTrips = %d, want 0: the device re-encoded a query", st.NVMeRoundTrips)
	}
}

func TestQueryLeafIsARead(t *testing.T) {
	d := newDevice(t)
	page := randPage(d, 42)
	if _, err := d.WriteOperand(5, page, 0); err != nil {
		t.Fatal(err)
	}
	res, err := d.ExecuteQuery(plan.Leaf(5), SchemeLocFree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, page) {
		t.Fatal("leaf query is not a plain read")
	}
	// Plain reads must not occupy the result cache.
	if st := d.QueryStats(); st.Cache.Entries != 0 {
		t.Errorf("cache entries = %d after a leaf query", st.Cache.Entries)
	}
}

func TestQueryCacheHitIsFasterAndExact(t *testing.T) {
	d := newDevice(t)
	content := map[uint64][]byte{}
	for lpn := uint64(1); lpn <= 3; lpn++ {
		content[lpn] = randPage(d, int64(lpn))
		if _, err := d.WriteOperand(lpn, content[lpn], 0); err != nil {
			t.Fatal(err)
		}
	}
	e := mustParse(t, "1 & 2 & 3")
	first, err := d.ExecuteQuery(e, SchemeReAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.ExecuteQuery(e, SchemeReAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Data, second.Data) || !bytes.Equal(first.Data, refEval(t, e, content)) {
		t.Fatal("cached result differs from reference")
	}
	st := d.QueryStats()
	if st.Cache.Hits == 0 {
		t.Fatal("second identical query did not hit the cache")
	}
	if second.Done >= first.Done {
		t.Errorf("cache hit not faster: first %v, second %v", first.Done, second.Done)
	}
}

func TestQueryCacheInvalidatedOnOverwrite(t *testing.T) {
	d := newDevice(t)
	content := map[uint64][]byte{}
	for lpn := uint64(1); lpn <= 3; lpn++ {
		content[lpn] = randPage(d, int64(10+lpn))
		if _, err := d.WriteOperand(lpn, content[lpn], 0); err != nil {
			t.Fatal(err)
		}
	}
	e := mustParse(t, "(1 & 2) | 3")
	if _, err := d.ExecuteQuery(e, SchemeReAlloc, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite one operand: every cached intermediate depending on it
	// must die, and the re-run must see the new bytes.
	content[2] = randPage(d, 999)
	if _, err := d.WriteOperand(2, content[2], 0); err != nil {
		t.Fatal(err)
	}
	res, err := d.ExecuteQuery(e, SchemeReAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, refEval(t, e, content)) {
		t.Fatal("query served a stale intermediate after operand overwrite")
	}
	if st := d.QueryStats(); st.Cache.Invalidations == 0 {
		t.Error("overwrite did not invalidate any cache entry")
	}
}

// tinyConfig is a 2-plane, 8-block device small enough to fill a plane
// with a handful of writes, so tests can trigger garbage collection at a
// chosen instant.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 8, WordlinesPerBlock: 4, PageSize: 64, CellBits: 2,
	}
	return cfg
}

// fillPlaneForGC arranges the given plane so that the next block-opening
// write there runs garbage collection with the block holding victimLPNs
// as the victim: the victims' block also gets two filler pages that are
// then overwritten (leaving it the least-valid full block), and further
// fillers eat free blocks down to the GC threshold. Returns the content
// written for the victim LPNs and the advanced sim time.
func fillPlaneForGC(t *testing.T, d *Device, planeIdx int, victimLPNs []uint64, content map[uint64][]byte) sim.Time {
	t.Helper()
	at := sim.Time(0)
	write := func(lpn uint64, seed int64) {
		t.Helper()
		page := randPage(d, seed)
		done, err := d.WritePages(persist.OpWriteOnPlane, planeIdx, []uint64{lpn}, [][]byte{page}, at)
		if err != nil {
			t.Fatalf("fill write lpn %d: %v", lpn, err)
		}
		content[lpn] = page
		at = done
	}
	for i, lpn := range victimLPNs {
		write(lpn, int64(3000+i))
	}
	// Finish the victims' block with fillers, then overwrite them so the
	// block becomes the least-valid GC victim.
	filler := uint64(40)
	seed := int64(4000)
	wpb := d.cfg.Geometry.WordlinesPerBlock
	for i := len(victimLPNs); i < wpb; i++ {
		write(filler, seed)
		filler++
		seed++
	}
	for f := uint64(40); f < filler; f++ {
		write(f, seed)
		seed++
	}
	// Each operand write consumes one wordline. Fill with distinct live
	// pages until exactly GCFreeBlockLow free blocks remain and the
	// active block just closed; the next block-opening write on this
	// plane then collects, with the victims' block (least valid) as
	// victim.
	geo := d.cfg.Geometry
	total := (geo.BlocksPerPlane - d.cfg.FTL.GCFreeBlockLow) * wpb
	written := wpb + (wpb - len(victimLPNs)) // victims' block + the overwrites
	for ; written < total; written++ {
		write(filler, seed)
		filler++
		seed++
	}
	return at
}

func TestQueryCacheInvalidatedByGC(t *testing.T) {
	d, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	content := map[uint64][]byte{}
	at := fillPlaneForGC(t, d, 1, []uint64{10, 11}, content)

	e := mustParse(t, "10 & 11")
	if _, err := d.ExecuteQuery(e, SchemeLocFree, at); err != nil {
		t.Fatal(err)
	}
	before := d.FTL().Stats().GCRuns
	addrBefore, _ := d.FTL().Lookup(10)
	// One more write on the full plane opens a block and must collect —
	// with the operands' block as victim, migrating them and erasing it.
	page := randPage(d, 7777)
	done, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{90}, [][]byte{page}, at)
	if err != nil {
		t.Fatal(err)
	}
	content[90] = page
	if d.FTL().Stats().GCRuns == before {
		t.Fatal("trigger write did not run GC; the fill arithmetic is off")
	}
	if addrAfter, _ := d.FTL().Lookup(10); addrAfter == addrBefore {
		t.Fatal("GC did not migrate the cached query's operand")
	}
	res, err := d.ExecuteQuery(e, SchemeLocFree, done)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, refEval(t, e, content)) {
		t.Fatal("query served a stale intermediate after GC migration")
	}
	if st := d.QueryStats(); st.Cache.Invalidations == 0 {
		t.Error("GC migration did not invalidate the cached intermediate")
	}
}

func TestQueryCacheInvalidatedByProgramFaultRetirement(t *testing.T) {
	d := newDevice(t)
	geo := d.cfg.Geometry
	content := map[uint64][]byte{}
	for lpn := uint64(1); lpn <= 2; lpn++ {
		content[lpn] = randPage(d, int64(20+lpn))
		if _, err := d.WritePages(persist.OpWriteOnPlane, 0, []uint64{lpn}, [][]byte{content[lpn]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	e := mustParse(t, "1 & 2")
	if _, err := d.ExecuteQuery(e, SchemeLocFree, 0); err != nil {
		t.Fatal(err)
	}
	// Arm a stuck block over the operands' (still active) block: the next
	// program there fails, the FTL retires the block and migrates the
	// operands, and the cached intermediate must not survive that.
	addr, ok := d.FTL().Lookup(1)
	if !ok {
		t.Fatal("operand 1 unmapped")
	}
	eng, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{{
		Type:  faults.RuleStuckBlock,
		Plane: geo.PlaneIndex(addr.PlaneAddr),
		Block: addr.Block,
	}}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	d.Array().SetFaultInjector(eng)
	page := randPage(d, 31)
	done, err := d.WritePages(persist.OpWriteOnPlane, 0, []uint64{3}, [][]byte{page}, 0)
	if err != nil {
		t.Fatalf("re-steered write failed: %v", err)
	}
	content[3] = page
	d.Array().SetFaultInjector(nil)
	if d.FTL().Stats().BlocksRetired == 0 {
		t.Fatal("stuck block was not retired; fault did not fire")
	}
	res, err := d.ExecuteQuery(e, SchemeLocFree, done)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, refEval(t, e, content)) {
		t.Fatal("query served a stale intermediate after block retirement")
	}
	if st := d.QueryStats(); st.Cache.Invalidations == 0 {
		t.Error("retirement migration did not invalidate the cached intermediate")
	}
}

// TestReduceLocFreeGCMidReduce is the regression test for folding stale
// wordline addresses: the parking write between two plane runs triggers
// garbage collection that migrates the second run's operands and erases
// their block. The reduction must re-resolve layouts after parking; the
// pre-fix code chained the pre-migration addresses and sensed erased
// cells.
func TestReduceLocFreeGCMidReduce(t *testing.T) {
	d, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	content := map[uint64][]byte{}
	// Run 1 on plane 0.
	for i, lpn := range []uint64{1, 2} {
		page := randPage(d, int64(100+i))
		if _, err := d.WritePages(persist.OpWriteOnPlane, 0, []uint64{lpn}, [][]byte{page}, 0); err != nil {
			t.Fatal(err)
		}
		content[lpn] = page
	}
	// Run 2 on plane 1, with the plane primed so the parking write's
	// block allocation collects the operands' block.
	at := fillPlaneForGC(t, d, 1, []uint64{10, 11}, content)

	before := d.FTL().Stats().GCRuns
	res, err := d.Reduce(latch.OpAnd, []uint64{1, 2, 10, 11}, SchemeLocFree, at)
	if err != nil {
		t.Fatal(err)
	}
	if d.FTL().Stats().GCRuns == before {
		t.Fatal("reduce did not trigger GC; the regression scenario did not arm")
	}
	want := make([]byte, d.PageSize())
	for i := range want {
		want[i] = content[1][i] & content[2][i] & content[10][i] & content[11][i]
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("reduce folded stale wordline addresses after mid-reduce GC")
	}
	if err := d.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReduceLocFreeRetirementMidReduce drives the same re-resolution path
// through the fault layer: a stuck block makes the parking write itself
// fail, retiring the active block that holds the second run's operands.
func TestReduceLocFreeRetirementMidReduce(t *testing.T) {
	d := newDevice(t)
	geo := d.cfg.Geometry
	content := map[uint64][]byte{}
	for i, lpn := range []uint64{1, 2} {
		page := randPage(d, int64(200+i))
		if _, err := d.WritePages(persist.OpWriteOnPlane, 0, []uint64{lpn}, [][]byte{page}, 0); err != nil {
			t.Fatal(err)
		}
		content[lpn] = page
	}
	for i, lpn := range []uint64{10, 11} {
		page := randPage(d, int64(300+i))
		if _, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{lpn}, [][]byte{page}, 0); err != nil {
			t.Fatal(err)
		}
		content[lpn] = page
	}
	// The parking write between runs targets plane 1's active block —
	// the block still holding operands 10 and 11. Making it stuck fails
	// that write, retires the block, and migrates the operands while the
	// reduction is mid-flight.
	addr, ok := d.FTL().Lookup(10)
	if !ok {
		t.Fatal("operand 10 unmapped")
	}
	eng, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{{
		Type:  faults.RuleStuckBlock,
		Plane: geo.PlaneIndex(addr.PlaneAddr),
		Block: addr.Block,
	}}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	d.Array().SetFaultInjector(eng)
	defer d.Array().SetFaultInjector(nil)

	res, err := d.Reduce(latch.OpAnd, []uint64{1, 2, 10, 11}, SchemeLocFree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.FTL().Stats().BlocksRetired == 0 {
		t.Fatal("parking write did not retire the stuck block")
	}
	want := make([]byte, d.PageSize())
	for i := range want {
		want[i] = content[1][i] & content[2][i] & content[10][i] & content[11][i]
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("reduce folded stale wordline addresses after mid-reduce retirement")
	}
	if err := d.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
