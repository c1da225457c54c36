package plan

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"parabit/internal/latch"
)

// TestCompileSharesProgramsAcrossGoroutines compiles the same queries from
// many goroutines at once, as cluster shards do; run under -race it
// proves Compile shares nothing mutable, including latch's chain table.
func TestCompileSharesProgramsAcrossGoroutines(t *testing.T) {
	qs := []string{
		"1 & 2 & 3 & 4",
		"(1 | 2 | 3) ^ (4 & 5)",
		strings.Repeat("1 ^ ", 19) + "2",
		strings.Repeat("3 & ", 39) + "4",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	keys := make([][]string, 8)
	for g := range keys {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range qs {
				e, err := Parse(s)
				if err != nil {
					errs <- err
					return
				}
				p, err := Compile(e)
				if err != nil {
					errs <- err
					return
				}
				keys[g] = append(keys[g], p.KeyString(p.Root()))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := range keys {
		if !reflect.DeepEqual(keys[g], keys[0]) {
			t.Fatalf("goroutine %d compiled different keys", g)
		}
	}
}

// TestNormalizeReturnsCanonicalInput pins copy-on-write normalization: a
// canonical tree comes back as the same pointer without allocating, and a
// non-canonical one leaves its input untouched.
func TestNormalizeReturnsCanonicalInput(t *testing.T) {
	for _, s := range []string{
		"7",
		"1 & 2",
		"(1 | 2 | 3) & !(4 & 5 & 6) & (7 ~^ 8)",
		"!(1 ^ 2 ^ 3) | (4 ~& 5)",
	} {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Normalize(n)
		if err != nil {
			t.Fatal(err)
		}
		if again != n {
			t.Fatalf("Normalize(%s) rebuilt a canonical tree", n)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := Normalize(n); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Normalize(%s) of a canonical tree allocates %v times", n, allocs)
		}
	}
	e := And(And(Leaf(1), Leaf(2)), Not(Not(Leaf(3))))
	before := e.Key()
	if _, err := Normalize(e); err != nil {
		t.Fatal(err)
	}
	if e.Key() != before || len(e.Args) != 2 {
		t.Fatalf("Normalize mutated its input: %s", e.Key())
	}
}

// TestCompileAllocationCeiling bounds the allocations of compiling a
// 4-leaf AND: the plan, its one step, the key, the leaf set and the memo,
// with nothing spent on normalization.
func TestCompileAllocationCeiling(t *testing.T) {
	e := And(Leaf(1), Leaf(2), Leaf(3), Leaf(4))
	if _, err := Compile(e); err != nil {
		t.Fatal(err)
	}
	const ceiling = 8
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Compile(e); err != nil {
			t.Fatal(err)
		}
	}); allocs > ceiling {
		t.Fatalf("Compile(4-leaf AND) allocates %v times, ceiling %d", allocs, ceiling)
	}
}

func BenchmarkPlanCompile(b *testing.B) {
	e, err := Parse("(1 & 2 & 3 & 4) | !(5 ^ 6) | (7 ~& 8)")
	if err != nil {
		b.Fatal(err)
	}
	n, err := Normalize(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmCompilerAllocatesNothing pins the device's planning cost: once
// a Compiler has compiled a normalized shape, compiling it again, with or
// without substituted pages, reuses its scratch and allocates nothing.
func TestWarmCompilerAllocatesNothing(t *testing.T) {
	var c Compiler
	for _, raw := range keyCorpus(t) {
		e, err := Normalize(raw)
		if err != nil {
			t.Fatal(err)
		}
		lpns := e.Leaves()
		for i := range lpns {
			lpns[i] += 1000
		}
		for _, sub := range [][]uint64{nil, lpns} {
			if _, err := c.Compile(e, sub); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := c.Compile(e, sub); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("warm Compile(%s, %d pages) allocates %v times", e, len(sub), allocs)
			}
		}
	}
}

// TestCompilerSubstitutesLeavesInOrder checks that a compile over
// substituted pages equals a compile of the tree whose leaves read them.
func TestCompilerSubstitutesLeavesInOrder(t *testing.T) {
	var c Compiler
	for _, e := range keyCorpus(t) {
		next := uint64(500)
		mapped := e.MapLeaves(func(uint64) uint64 { next += 7; return next })
		want, err := Compile(mapped)
		if err != nil {
			t.Fatal(err)
		}
		var wantDump strings.Builder
		dumpPlan(&wantDump, want)
		got, err := c.Compile(e, mapped.Leaves())
		if err != nil {
			t.Fatal(err)
		}
		var gotDump strings.Builder
		dumpPlan(&gotDump, got)
		if gotDump.String() != wantDump.String() {
			t.Fatalf("Compile(%s) over pages:\n%s\nwant\n%s", e, gotDump.String(), wantDump.String())
		}
	}
	if _, err := c.Compile(And(Leaf(1), Leaf(2)), []uint64{1}); !errors.Is(err, ErrBadExpr) {
		t.Fatalf("2 leaves over 1 page: %v, want ErrBadExpr", err)
	}
	if _, err := c.Compile(And(Leaf(1), Leaf(2)), []uint64{1, 2, 3}); !errors.Is(err, ErrBadExpr) {
		t.Fatalf("2 leaves over 3 pages: %v, want ErrBadExpr", err)
	}
}

// TestAppendLeavesAllocatesNothing pins leaf collection into a buffer
// that fits.
func TestAppendLeavesAllocatesNothing(t *testing.T) {
	e, err := Parse("!(1 ^ 2) | (5 ~& 6) | (3 ~| 3) ~^ 4")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() { buf = e.AppendLeaves(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendLeaves allocates %v times", allocs)
	}
	if fmt.Sprint(buf) != fmt.Sprint(e.Leaves()) {
		t.Fatalf("AppendLeaves = %v, want %v", buf, e.Leaves())
	}
}

// TestCacheNoAllocations pins the cache's steady state: a Put into a
// full cache reuses the buffers of the entry it evicts, and a miss
// allocates nothing.
func TestCacheNoAllocations(t *testing.T) {
	verOf := func(uint64) uint64 { return 0 }
	c := NewCache(8 * 64)
	page := make([]byte, 64)
	deps := []uint64{1, 2, 3}
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("k%d", i))
		c.Put(keys[i], page, deps, verOf, 1e-5)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Put(keys[i%len(keys)], page, deps, verOf, 1e-5)
		i++
	}); allocs != 0 {
		t.Fatalf("Put into a full cache allocates %v times", allocs)
	}
	if st := c.Stats(); st.Entries != 8 || st.Evictions < 1000 {
		t.Fatalf("stats %+v, want a full cache evicting on every Put", st)
	}
	miss := testKey("absent")
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(miss, verOf); ok {
			t.Fatal("hit on an absent key")
		}
	}); allocs != 0 {
		t.Fatalf("Get miss allocates %v times", allocs)
	}
}

// TestCacheCollisionMisses stores two structures under one hash: a
// lookup of the other structure misses, and a Put replaces the entry.
func TestCacheCollisionMisses(t *testing.T) {
	verOf := func(uint64) uint64 { return 0 }
	c := NewCache(1024)
	a := Key{Hash: 7, Shape: []uint64{nodeTag(latch.OpAnd, 2), 0, 1, 0, 2}}
	b := Key{Hash: 7, Shape: []uint64{nodeTag(latch.OpOr, 2), 0, 1, 0, 2}}
	c.Put(a, []byte{1}, nil, verOf, 1)
	if _, ok := c.Get(b, verOf); ok {
		t.Fatal("a colliding structure hit")
	}
	if got, ok := c.Get(a, verOf); !ok || got[0] != 1 {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	c.Put(b, []byte{2}, nil, verOf, 1)
	if _, ok := c.Get(a, verOf); ok {
		t.Fatal("the replaced structure still hits")
	}
	if got, ok := c.Get(b, verOf); !ok || got[0] != 2 {
		t.Fatalf("Get(b) = %v, %v", got, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}
