package plan

import (
	"reflect"
	"strings"
	"sync"
	"testing"
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
				keys[g] = append(keys[g], p.Steps[p.Root()].Key)
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
