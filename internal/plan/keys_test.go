package plan

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"parabit/internal/latch"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/compile_keys.golden from the current compiler")

// chainOf joins n consecutive LPNs starting at first with one infix operator.
func chainOf(op string, first, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprint(first + i)
	}
	return strings.Join(parts, " "+op+" ")
}

// keyCorpus is the expression set whose compiled step keys, leaf sets,
// arguments and programs are pinned byte for byte: the keys are the
// controller-DRAM result-cache slots, so any drift silently moves every
// cached result.
func keyCorpus(t *testing.T) []*Expr {
	t.Helper()
	and40, or40, xor20 := chainOf("&", 1, 40), chainOf("|", 1, 40), chainOf("^", 1, 20)
	srcs := []string{
		"9",
		"1 & 2",
		"1 & 2 & 3 & 4",
		"1 ~& 2",
		"1 ~| 2",
		"1 ~^ 2",
		"!7",
		"!!7",
		"!(1 ^ 2 ^ 3)",
		"!(1 & 2) | !(3 | 4) | !(5 ^ 6)",
		"(1 | 2) & (3 ^ 4) & !(5 & 6)",
		"((1 & 2) | (3 & 4)) ^ ((2 & 1) | (4 & 3)) ^ (1 & 2)",
		"(1 & 2 & 3) | (4 & 5 & 6) | ((1 & 2 & 3) ^ 7)",
		"1 & 1 & 2",
		"(1 & 2) & (2 & 3)",
		"1000 & 20000 & 300 | 123456789 ^ 4294967296",
		"!((1 & 2 & 3) ^ (4 | 5)) ~& (1 & 2 & 3)",
		and40,
		or40,
		xor20,
		chainOf("&", 100, 70),
		"!(" + and40 + ")",
		"(" + and40 + ") ~^ 7",
		"(" + or40 + ") & ((" + or40 + ") ^ 5)",
		"(" + xor20 + ") | !(" + xor20 + ")",
	}
	var out []*Expr
	for _, s := range srcs {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		out = append(out, e)
	}
	// NOT spelled with the MSB opcode normalizes like the LSB one.
	out = append(out,
		node(latch.OpNotMSB, And(Leaf(1), Leaf(2), Leaf(3))),
		node(latch.OpNotMSB, Leaf(4)))
	return out
}

// dumpPlan renders every field of a compiled plan that reaches the device
// or the result cache.
func dumpPlan(b *strings.Builder, p *Plan) {
	for i, s := range p.Steps {
		args := make([]string, len(s.Args))
		for j, r := range s.Args {
			if r.Leaf {
				args[j] = fmt.Sprintf("p%d", r.LPN)
			} else {
				args[j] = fmt.Sprintf("s%d", r.Step)
			}
		}
		fmt.Fprintf(b, "  step %d %s %v args=%s\n", i, s.Kind, s.Op, strings.Join(args, ","))
		fmt.Fprintf(b, "    key=%s\n", p.KeyString(i))
		fmt.Fprintf(b, "    leaves=%v\n", s.Leaves)
	}
	fmt.Fprintf(b, "  fused=%d operands=%d\n", p.FusedChains, p.FusedOperands)
}

// TestCompileKeysGolden pins every Step.Key, Step.Leaves, argument list
// and fusion counter over a corpus of nested, split-chain, complemented
// and shared-sub-expression queries against testdata/compile_keys.golden.
// Regenerate only for a deliberate cache-key change:
//
//	go test ./internal/plan -run TestCompileKeysGolden -update-keys
func TestCompileKeysGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range keyCorpus(t) {
		p, err := Compile(e)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e, err)
		}
		fmt.Fprintf(&b, "query %s\n", e.Key())
		dumpPlan(&b, p)
	}
	const golden = "testdata/compile_keys.golden"
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("compiled plan drifted from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("compiled plan drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
