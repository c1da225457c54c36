package plan

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"parabit/internal/latch"
)

// softRead builds a read function over deterministic per-LPN pages.
func softRead(pageSize int) func(lpn uint64) ([]byte, error) {
	return func(lpn uint64) ([]byte, error) {
		p := make([]byte, pageSize)
		r := rand.New(rand.NewSource(int64(lpn) + 17))
		r.Read(p)
		return p, nil
	}
}

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical key
	}{
		{"1 & 2", "and(1,2)"},
		{"2 & 1", "and(1,2)"},
		{"1 & 2 & 3", "and(3,and(1,2))"}, // keys sort; Parse does not flatten
		{"1 | 2 ^ 3 & 4", "or(1,xor(2,and(3,4)))"},
		{"!(1 & 2)", "not(and(1,2))"},
		{"!!7", "not(not(7))"},
		{"1 ~& 2", "nand(1,2)"},
		{"1 ~| 2", "nor(1,2)"},
		{"1 ~^ 2", "xnor(1,2)"},
		{"(1 | 2) & (3 | 4)", "and(or(1,2),or(3,4))"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := e.Key(); got != c.want {
			t.Errorf("Parse(%q).Key() = %q, want %q", c.in, got, c.want)
		}
		// String must re-parse to the same canonical key.
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", e.String(), err)
		}
		if back.Key() != e.Key() {
			t.Errorf("String round-trip of %q: %q != %q", c.in, back.Key(), e.Key())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "1 &", "& 1", "(1 | 2", "1 2", "foo", "1 & & 2", "!(", "1)"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestNormalizeFoldsComplements(t *testing.T) {
	cases := []struct {
		in   *Expr
		want string
	}{
		{Not(Not(Leaf(3))), "3"},
		{Not(And(Leaf(1), Leaf(2))), "nand(1,2)"},
		{Not(Or(Leaf(1), Leaf(2))), "nor(1,2)"},
		{Not(Xor(Leaf(1), Leaf(2))), "xnor(1,2)"},
		{Not(Nand(Leaf(1), Leaf(2))), "and(1,2)"},
		{Not(Nor(Leaf(1), Leaf(2))), "or(1,2)"},
		{Not(Xnor(Leaf(1), Leaf(2))), "xor(1,2)"},
		// The unwrapped base op flattens with a same-op argument.
		{Not(Nand(And(Leaf(1), Leaf(2)), Leaf(3))), "and(1,2,3)"},
		{Not(Xnor(Leaf(1), Xor(Leaf(2), Leaf(3)))), "xor(1,2,3)"},
		{And(And(Leaf(1), Leaf(2)), And(Leaf(3), Leaf(4))), "and(1,2,3,4)"},
		{Or(Leaf(1), Or(Leaf(2), Or(Leaf(3), Leaf(4)))), "or(1,2,3,4)"},
		{Xor(Xor(Leaf(1), Leaf(2)), Leaf(3)), "xor(1,2,3)"},
		// A 3-ary AND under NOT has no complement op; NOT survives.
		{Not(And(Leaf(1), Leaf(2), Leaf(3))), "not(and(1,2,3))"},
	}
	for _, c := range cases {
		n, err := Normalize(c.in)
		if err != nil {
			t.Fatalf("Normalize(%s): %v", c.in, err)
		}
		if got := n.Key(); got != c.want {
			t.Errorf("Normalize(%s).Key() = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizePreservesEval proves the rewrites are semantic no-ops by
// differential evaluation over random expressions, and that their result
// is canonical: normalizing it again changes nothing.
func TestNormalizePreservesEval(t *testing.T) {
	read := softRead(64)
	rng := rand.New(rand.NewSource(42))
	var gen func(depth int) *Expr
	gen = func(depth int) *Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			return Leaf(uint64(rng.Intn(6)))
		}
		switch rng.Intn(7) {
		case 0:
			return Not(gen(depth - 1))
		case 1:
			return Nand(gen(depth-1), gen(depth-1))
		case 2:
			return Nor(gen(depth-1), gen(depth-1))
		case 3:
			return Xnor(gen(depth-1), gen(depth-1))
		case 4:
			return And(gen(depth-1), gen(depth-1))
		case 5:
			return Or(gen(depth-1), gen(depth-1))
		default:
			return Xor(gen(depth-1), gen(depth-1))
		}
	}
	for i := 0; i < 200; i++ {
		e := gen(4)
		n, err := Normalize(e)
		if err != nil {
			t.Fatalf("Normalize(%s): %v", e, err)
		}
		want, err := e.Eval(read)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.Eval(read)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("iteration %d: Normalize changed semantics of %s (-> %s)", i, e, n)
		}
		if again, err := Normalize(n); err != nil || again.Key() != n.Key() {
			t.Fatalf("iteration %d: Normalize(%s) is not canonical: again %s, %v", i, n, again, err)
		}
	}
}

func TestCompileFusesChains(t *testing.T) {
	// Eight AND'd pages: one fused chain, one step.
	args := make([]*Expr, 8)
	for i := range args {
		args[i] = Leaf(uint64(i))
	}
	p, err := Compile(And(args...))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 || p.Steps[0].Kind != StepFused || len(p.Steps[0].Args) != 8 {
		t.Fatalf("want one 8-wide fused step, got %+v", p.Steps)
	}
	if p.FusedChains != 1 || p.FusedOperands != 8 {
		t.Fatalf("fusion counters = %d/%d", p.FusedChains, p.FusedOperands)
	}

	// Nested same-op chains flatten into the same single step.
	p2, err := Compile(And(And(Leaf(0), Leaf(1)), And(Leaf(2), And(Leaf(3), Leaf(4)))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Steps) != 1 || len(p2.Steps[0].Args) != 5 {
		t.Fatalf("nested AND did not flatten: %+v", p2.Steps)
	}
}

func TestCompileSplitsOverlongChains(t *testing.T) {
	// 40 operands exceed every op's longest chained program: expect
	// several fused steps, each folding 2..latch.MaxChain operands (the
	// range whose unrolled programs latch's TestChainUnrollsValidate
	// validates), combined by a final fused step.
	args := make([]*Expr, 40)
	for i := range args {
		args[i] = Leaf(uint64(i))
	}
	for _, e := range []*Expr{And(args...), Or(args...), Xor(args...)} {
		p, err := Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		max := latch.MaxChain(e.Op)
		if len(p.Steps) < 2 {
			t.Fatalf("%v of 40 compiled to %d steps, want a split at %d", e.Op, len(p.Steps), max)
		}
		covered := 0
		for _, s := range p.Steps {
			if s.Kind != StepFused || s.Op != e.Op {
				t.Fatalf("unexpected step %v %v", s.Kind, s.Op)
			}
			if len(s.Args) < 2 || len(s.Args) > max {
				t.Fatalf("%v step arity %d outside the legal chain 2..%d", s.Op, len(s.Args), max)
			}
			for _, r := range s.Args {
				if r.Leaf {
					covered++
				}
			}
		}
		if covered != 40 {
			t.Fatalf("%v steps cover %d leaves, want 40", e.Op, covered)
		}
		if root := p.Steps[p.Root()]; len(root.Leaves) != 40 {
			t.Fatalf("%v root leaf set %d, want 40", e.Op, len(root.Leaves))
		}
	}
}

func TestCompileSharesCommonSubexpressions(t *testing.T) {
	// (1&2) appears twice (once reordered); it must compile once.
	e := Or(Xor(And(Leaf(1), Leaf(2)), Leaf(3)), And(Leaf(2), Leaf(1)))
	p, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	ands := 0
	for _, s := range p.Steps {
		if s.Kind == StepFused && s.Op == latch.OpAnd {
			ands++
		}
	}
	if ands != 1 {
		t.Fatalf("AND(1,2) compiled %d times, want 1 (steps: %+v)", ands, p.Steps)
	}
}

func TestCompileSharesComplementsOfSplitChains(t *testing.T) {
	// A complement over a chain longer than latch.MaxChain steps under a
	// key over the chain's segment results, not its expression key. A
	// repeat of the complement must still find the step, as a repeated
	// split chain does.
	chain := func() *Expr {
		args := make([]*Expr, 40)
		for i := range args {
			args[i] = Leaf(uint64(i + 1))
		}
		return And(args...)
	}
	cases := []struct {
		name string
		e    *Expr
		kind StepKind
	}{
		{"not", Or(Not(chain()), Not(chain())), StepNot},
		{"nand", Or(Nand(chain(), Leaf(41)), Nand(Leaf(41), chain())), StepOp},
	}
	for _, tc := range cases {
		p, err := Compile(tc.e)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range p.Steps {
			if s.Kind == tc.kind {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%s: the repeated complement compiled to %d %s steps, want 1 (%d steps)", tc.name, n, tc.kind, len(p.Steps))
		}
		// Two chain segments, the fold of their results, the complement
		// and the OR over its two uses.
		if len(p.Steps) != 5 {
			t.Fatalf("%s: %d steps, want 5", tc.name, len(p.Steps))
		}
	}
}

func TestCompileTopoOrder(t *testing.T) {
	e, err := Parse("!((1 & 2 & 3) ^ (4 | 5)) ~& (1 & 2 & 3)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range p.Steps {
		for _, r := range s.Args {
			if !r.Leaf && r.Step >= i {
				t.Fatalf("step %d references step %d", i, r.Step)
			}
		}
	}
}

// testKey is a cache key named by a string: its FNV-1a hash, and its
// bytes as the shape.
func testKey(s string) Key {
	h := fnv.New64a()
	h.Write([]byte(s))
	shape := make([]uint64, len(s))
	for i := range s {
		shape[i] = uint64(s[i])
	}
	return Key{Hash: h.Sum64(), Shape: shape}
}

func TestCacheHitMissInvalidate(t *testing.T) {
	vers := map[uint64]uint64{1: 1, 2: 1}
	verOf := func(lpn uint64) uint64 { return vers[lpn] }
	c := NewCache(1024)
	if _, ok := c.Get(testKey("and(1,2)"), verOf); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(testKey("and(1,2)"), []byte{0xAA, 0xBB}, []uint64{1, 2}, verOf, 1e-4)
	got, ok := c.Get(testKey("and(1,2)"), verOf)
	if !ok || got[0] != 0xAA {
		t.Fatalf("miss after Put: %v %v", got, ok)
	}
	// Returned slice is a copy.
	got[0] = 0
	if again, _ := c.Get(testKey("and(1,2)"), verOf); again[0] != 0xAA {
		t.Fatal("Get returned shared storage")
	}
	// Bump a dependency version: entry must invalidate.
	vers[2]++
	if _, ok := c.Get(testKey("and(1,2)"), verOf); ok {
		t.Fatal("served stale entry after operand version bump")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Hits != 2 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheEvictsCheapestPerByte(t *testing.T) {
	verOf := func(uint64) uint64 { return 0 }
	c := NewCache(2048)
	cheap := make([]byte, 1024)
	dear := make([]byte, 1024)
	c.Put(testKey("cheap"), cheap, nil, verOf, 1e-6)
	c.Put(testKey("dear"), dear, nil, verOf, 1e-2)
	// Inserting a third page forces one eviction: the cheap entry goes.
	c.Put(testKey("new"), make([]byte, 1024), nil, verOf, 1e-3)
	if _, ok := c.Get(testKey("dear"), verOf); !ok {
		t.Fatal("expensive entry evicted before cheap one")
	}
	if _, ok := c.Get(testKey("cheap"), verOf); ok {
		t.Fatal("cheap entry survived")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

// TestCacheEvictionOrderUnchanged replays a random Put/Get sequence and
// checks every victim against a model that rescores every entry on every
// eviction with costSeconds / len — the score Put evaluates once per
// entry.
func TestCacheEvictionOrderUnchanged(t *testing.T) {
	type modelEntry struct {
		size    int64
		cost    float64
		lastUse uint64
	}
	verOf := func(uint64) uint64 { return 0 }
	rng := rand.New(rand.NewSource(7))
	const capacity = 4096
	c := NewCache(capacity)
	model := map[string]*modelEntry{}
	var used int64
	var clock uint64
	var victims []string
	oldScore := func(e *modelEntry) float64 { return e.cost / float64(e.size) }
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(40))
		if rng.Intn(3) == 0 {
			_, got := c.Get(testKey(key), verOf)
			e, want := model[key]
			if got != want {
				t.Fatalf("op %d: Get(%s) = %v, model %v", i, key, got, want)
			}
			if want {
				clock++
				e.lastUse = clock
			}
			continue
		}
		size := int64(64 << rng.Intn(6))
		// Costs from a small set, so equal scores exercise the LRU
		// tiebreak.
		cost := float64(1+rng.Intn(4)) * 1e-5
		c.Put(testKey(key), make([]byte, size), nil, verOf, cost)
		if old, ok := model[key]; ok {
			used -= old.size
			delete(model, key)
		}
		for used+size > capacity {
			var victim string
			for k, e := range model {
				v := model[victim]
				if victim == "" || oldScore(e) < oldScore(v) ||
					(oldScore(e) == oldScore(v) && e.lastUse < v.lastUse) {
					victim = k
				}
			}
			victims = append(victims, victim)
			used -= model[victim].size
			delete(model, victim)
		}
		clock++
		model[key] = &modelEntry{size: size, cost: cost, lastUse: clock}
		used += size
		if len(c.entries) != len(model) {
			t.Fatalf("op %d: cache holds %d entries, model %d", i, len(c.entries), len(model))
		}
		for k := range model {
			if _, ok := c.entries[testKey(k).Hash]; !ok {
				t.Fatalf("op %d: cache evicted %s, model kept it (model victims %v)", i, k, victims[max(0, len(victims)-3):])
			}
		}
	}
	if st := c.Stats(); st.Evictions != int64(len(victims)) || len(victims) < 100 {
		t.Fatalf("%d evictions, model %d", st.Evictions, len(victims))
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	verOf := func(uint64) uint64 { return 0 }
	c.Put(testKey("k"), []byte{1}, nil, verOf, 1)
	if _, ok := c.Get(testKey("k"), verOf); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestFormulaRoundTrip(t *testing.T) {
	const pageSize = 512
	exprs := []string{
		"1 & 2",
		"(1 & 2) | (3 & 4)",
		"(1 ^ 2) & (3 | 4) & (5 ~^ 6)",
		"(1 ~& 2) ^ (3 ~| 4)",
		"!(1 & 2) | (3 & 4)", // normalizes to (1 ~& 2) | (3 & 4): two terms
	}
	for _, s := range exprs {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		back, ok, err := RoundTrip(e, pageSize)
		if err != nil {
			t.Fatalf("RoundTrip(%q): %v", s, err)
		}
		if !ok {
			t.Fatalf("RoundTrip(%q): not expressible, want expressible", s)
		}
		n, _ := Normalize(e)
		if back.Key() != n.Key() {
			t.Fatalf("RoundTrip(%q) = %q, want %q", s, back.Key(), n.Key())
		}
	}
	// Non-expressible shapes must return ok=false without error.
	for _, s := range []string{"1 & 2 & 3", "!(1 & 2 & 3) | (4 & 5)", "((1&2)|(3&4)) ^ (5&6)"} {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := RoundTrip(e, pageSize); err != nil {
			t.Fatalf("RoundTrip(%q): %v", s, err)
		} else if ok {
			t.Fatalf("RoundTrip(%q): expressible, want not", s)
		}
	}
}

func TestCompileEvalMatchesPlanSemantics(t *testing.T) {
	// Walk a compiled plan in software and compare against direct Eval —
	// proves splitting and CSE preserve semantics.
	read := softRead(32)
	exprs := []string{
		"1 & 2 & 3 & 4",
		"(1 | 2) ^ (3 & 4 & 5)",
		"!(1 ^ 2) | (3 ~& 4)",
		strings.Repeat("1 | ", 39) + "2", // forces chain splitting
	}
	for _, s := range exprs {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]byte, len(p.Steps))
		argData := func(r Ref) []byte {
			if r.Leaf {
				d, _ := read(r.LPN)
				return d
			}
			return append([]byte(nil), results[r.Step]...)
		}
		for i, st := range p.Steps {
			switch st.Kind {
			case StepRead:
				results[i] = argData(st.Args[0])
			case StepNot:
				d := argData(st.Args[0])
				for j := range d {
					d[j] = ^d[j]
				}
				results[i] = d
			default:
				acc := argData(st.Args[0])
				base, invert := st.Op.Base()
				for _, r := range st.Args[1:] {
					d := argData(r)
					for j := range acc {
						switch base {
						case latch.OpAnd:
							acc[j] &= d[j]
						case latch.OpOr:
							acc[j] |= d[j]
						case latch.OpXor:
							acc[j] ^= d[j]
						}
					}
				}
				if invert {
					for j := range acc {
						acc[j] = ^acc[j]
					}
				}
				results[i] = acc
			}
		}
		want, err := e.Eval(read)
		if err != nil {
			t.Fatal(err)
		}
		if string(results[p.Root()]) != string(want) {
			t.Fatalf("plan execution of %q diverges from Eval", s)
		}
	}
}

func TestLeafQueryCompilesToRead(t *testing.T) {
	p, err := Compile(Leaf(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 || p.Steps[0].Kind != StepRead {
		t.Fatalf("leaf plan: %+v", p.Steps)
	}
}

func TestExprKeyOrderInsensitive(t *testing.T) {
	a := And(Leaf(1), Or(Leaf(2), Leaf(3)))
	b := And(Or(Leaf(3), Leaf(2)), Leaf(1))
	if a.Key() != b.Key() {
		t.Fatalf("commutative reorder changed key: %q vs %q", a.Key(), b.Key())
	}
}

// TestMapLeavesKeepsShape checks that MapLeaves calls its function once
// per leaf in Leaves order and rebuilds every operation as it was.
func TestMapLeavesKeepsShape(t *testing.T) {
	e, err := Parse("!(1 ^ 2) | (5 ~& 6) | (3 ~| 3) ~^ 4")
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	m := e.MapLeaves(func(lpn uint64) uint64 {
		seen = append(seen, lpn)
		return lpn + 10
	})
	if got, want := fmt.Sprint(seen), fmt.Sprint(e.Leaves()); got != want {
		t.Fatalf("visited %s, want Leaves order %s", got, want)
	}
	want, err := Parse("!(11 ^ 12) | (15 ~& 16) | (13 ~| 13) ~^ 14")
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != want.String() {
		t.Fatalf("MapLeaves = %q, want %q", m, want)
	}
}

func ExampleParse() {
	e, _ := Parse("(1 & 2) | !(3 ^ 4)")
	n, _ := Normalize(e)
	fmt.Println(n.Key())
	// Output: or(and(1,2),xnor(3,4))
}
