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

// TestReduceLocFreeGCMidReduce: garbage collection never strands a
// location-free reduction on stale wordline addresses. With plane 1 one
// block-opening write from collecting the block under operands 10 and
// 11, a sense-only reduction programs nothing, so it runs no GC and its
// operands stay put. ParaBit-ReAlloc's serial reallocation chain, the
// only one left (here with operand 2 on an MSB page), has its first
// program there collect that block mid-reduce; operand 11, which GC
// migrates before the chain reaches it, is read where it now is.
func TestReduceLocFreeGCMidReduce(t *testing.T) {
	for _, handOff := range []bool{false, true} {
		d := MustNew(tinyConfig())
		content := map[uint64][]byte{}
		pages := [][]byte{randPage(d, 100), randPage(d, 101)}
		content[1], content[2] = pages[0], pages[1]
		if handOff {
			// Operand 2 on the MSB page of operand 1's wordline.
			if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{1, 2}, pages, 0); err != nil {
				t.Fatal(err)
			}
		} else {
			for i, lpn := range []uint64{1, 2} {
				if _, err := d.WritePages(persist.OpWriteOnPlane, 0, []uint64{lpn}, pages[i:i+1], 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a, _ := d.FTL().Lookup(2); d.cfg.Geometry.PlaneIndex(a.PlaneAddr) != 0 || (a.Kind == flash.MSBPage) != handOff {
			t.Fatalf("hand-off %v: operand 2 at %+v", handOff, a)
		}
		at := fillPlaneForGC(t, d, 1, []uint64{10, 11}, content)
		// The serial chain reads 10 before its first program; 11 is the
		// operand GC moves before the reduction reaches it.
		addr, _ := d.FTL().Lookup(11)
		lpns := []uint64{1, 2, 10, 11}

		scheme := SchemeLocFree
		if handOff {
			scheme = SchemeReAlloc
		}
		gc, programs := d.FTL().Stats().GCRuns, d.Array().Stats().Programs
		res, err := d.Reduce(latch.OpAnd, lpns, scheme, at)
		if err != nil {
			t.Fatalf("hand-off %v: %v", handOff, err)
		}
		ran := d.FTL().Stats().GCRuns > gc
		moved, _ := d.FTL().Lookup(11)
		if handOff {
			if !ran {
				t.Fatal("hand-off: reduce did not trigger GC; the regression scenario did not arm")
			}
			if moved == addr {
				t.Fatal("hand-off: GC did not migrate operand 11")
			}
		} else {
			if ran || moved != addr {
				t.Fatal("sense-only reduce ran GC or moved an operand")
			}
			if n := d.Array().Stats().Programs - programs; n != 0 {
				t.Fatalf("sense-only reduce programmed %d pages, want 0", n)
			}
		}
		want := make([][]byte, len(lpns))
		for i, lpn := range lpns {
			want[i] = content[lpn]
		}
		if !bytes.Equal(res.Data, softwareFold(latch.OpAnd, want)) {
			t.Fatalf("hand-off %v: reduce folded stale wordline addresses after mid-reduce GC", handOff)
		}
		if err := d.FTL().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReduceMovesNoOperand runs a LocFree reduction over a cross-plane
// group hundreds of times: a lone operand on plane 1 is read, three
// aligned operands on plane 0 chain. Reads and senses never move a page,
// so every operand keeps its mapping version and address, and nothing
// is programmed or erased.
func TestReduceMovesNoOperand(t *testing.T) {
	d := MustNew(tinyConfig())
	content := map[uint64][]byte{}
	write := func(plane int, lpn uint64) {
		t.Helper()
		content[lpn] = randPage(d, int64(100+lpn))
		if _, err := d.WritePages(persist.OpWriteOnPlane, plane, []uint64{lpn}, [][]byte{content[lpn]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	lpns := []uint64{1, 10, 11, 12}
	write(1, lpns[0])
	for _, lpn := range lpns[1:] {
		write(0, lpn)
	}
	pages := make([][]byte, len(lpns))
	vers := make([]uint64, len(lpns))
	addrs := make([]flash.PageAddr, len(lpns))
	for i, lpn := range lpns {
		pages[i] = content[lpn]
		vers[i] = d.FTL().Version(lpn)
		addrs[i], _ = d.FTL().Lookup(lpn)
	}
	if addrs[0].PlaneAddr == addrs[1].PlaneAddr {
		t.Fatal("the lone operand shares the group's plane")
	}
	want := softwareFold(latch.OpAnd, pages)
	before := d.Array().Stats()
	for r := 0; r < 300; r++ {
		res, err := d.Reduce(latch.OpAnd, lpns, SchemeLocFree, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, want) {
			t.Fatalf("round %d: wrong result", r)
		}
	}
	for i, lpn := range lpns {
		addr, _ := d.FTL().Lookup(lpn)
		if v := d.FTL().Version(lpn); v != vers[i] || addr != addrs[i] {
			t.Errorf("operand %d: version %d at %v, want %d at %v", lpn, v, addr, vers[i], addrs[i])
		}
	}
	if after := d.Array().Stats(); after.Programs != before.Programs || after.Erases != before.Erases {
		t.Errorf("reductions programmed %d pages and erased %d blocks, want none",
			after.Programs-before.Programs, after.Erases-before.Erases)
	}
}

// TestCrossPlaneReduceProgramsNothing: a location-free reduction over
// two planes and a Flash-Cosmos reduction over block groups on two planes
// combine their partials in the controller buffer. Neither programs a
// page, reallocates or counts a fallback, for AND, OR and XOR (which
// Flash-Cosmos runs location-free), and both give the software fold.
func TestCrossPlaneReduceProgramsNothing(t *testing.T) {
	layouts := []struct {
		scheme Scheme
		write  func(t *testing.T, d *Device, lpns []uint64, pages [][]byte)
	}{
		{SchemeLocFree, func(t *testing.T, d *Device, lpns []uint64, pages [][]byte) {
			for i := range lpns {
				if _, err := d.WritePages(persist.OpWriteOnPlane, i%2, lpns[i:i+1], pages[i:i+1], 0); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{SchemeFlashCosmos, func(t *testing.T, d *Device, lpns []uint64, pages [][]byte) {
			half := len(lpns) / 2
			for _, g := range [][2]int{{0, half}, {half, len(lpns)}} {
				if _, err := d.WritePages(persist.OpWriteMWSGroup, 0, lpns[g[0]:g[1]], pages[g[0]:g[1]], 0); err != nil {
					t.Fatal(err)
				}
			}
			a, _ := d.FTL().Lookup(lpns[0])
			b, _ := d.FTL().Lookup(lpns[half])
			if a.PlaneAddr == b.PlaneAddr {
				t.Fatalf("both block groups landed on plane %v", a.PlaneAddr)
			}
		}},
	}
	for _, l := range layouts {
		for _, op := range []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor} {
			d := newDevice(t)
			lpns, pages := spreadOperands(d, 0, 8)
			l.write(t, d, lpns, pages)
			fl, extra := d.Array().Stats().Programs, d.FTL().Stats().ExtraPagesWritten
			r, err := d.Reduce(op, lpns, l.scheme, d.DrainTime())
			if err != nil {
				t.Fatalf("%v %v: %v", l.scheme, op, err)
			}
			if !bytes.Equal(r.Data, softwareFold(op, pages)) {
				t.Fatalf("%v %v: result differs from the software fold", l.scheme, op)
			}
			if n := d.Array().Stats().Programs - fl; n != 0 {
				t.Errorf("%v %v: %d programs, want 0", l.scheme, op, n)
			}
			if n := d.FTL().Stats().ExtraPagesWritten - extra; n != 0 {
				t.Errorf("%v %v: %d extra pages written, want 0", l.scheme, op, n)
			}
			if s := d.Stats(); s.Reallocations != 0 {
				t.Errorf("%v %v: %d reallocations, want 0", l.scheme, op, s.Reallocations)
			}
			wantFallbacks := int64(0)
			if l.scheme == SchemeFlashCosmos && op == latch.OpXor {
				wantFallbacks = 1 // no MWS form: the whole reduction runs location-free
			}
			if n := d.Stats().Fallbacks; n != wantFallbacks {
				t.Errorf("%v %v: %d fallbacks, want %d", l.scheme, op, n, wantFallbacks)
			}
		}
	}
}
