package plan

import (
	"fmt"
	"slices"

	"parabit/internal/latch"
	"parabit/internal/nvme"
)

// The nvme bridge lowers planner expressions onto the paper's §4.3.1
// command encoding and lifts parsed batches back, so a planned query can
// ride the same host-interface round-trip ordinary formulas do. The wire
// format expresses "(M0 ? N0) ! (M1 ? N1) ! ..." — binary terms over
// pages combined left-to-right — which covers exactly the expressions
// whose top-level node combines binary leaf-pair terms.

// ToFormula lowers an expression to the NVMe formula shape. It succeeds
// when the (normalized) expression is a binary operation over two leaves,
// or an n-ary node whose arguments are all binary operations over two
// leaves (each argument becomes a batch, the node's operation the
// extra-batch combine). Returns ok=false for expressions the wire format
// cannot carry — deeper nesting, NOT, or mixed leaf/term arguments.
func ToFormula(e *Expr, pageSize int) (nvme.Formula, bool) {
	return AppendFormula(nvme.Formula{}, e, pageSize)
}

// AppendFormula is ToFormula appending e's terms and combine operations
// to f's, so a caller that keeps f's slices lowers without allocating.
// An expression the wire cannot carry returns f as passed, with false.
func AppendFormula(f nvme.Formula, e *Expr, pageSize int) (nvme.Formula, bool) {
	if e == nil || e.leaf {
		return f, false
	}
	out := f
	if t, ok := leafTerm(e, pageSize); ok {
		out.Terms = append(out.Terms, t)
		return out, true
	}
	switch e.Op {
	case latch.OpAnd, latch.OpOr, latch.OpXor, latch.OpXnor, latch.OpNand, latch.OpNor:
	default:
		return f, false
	}
	for i, a := range e.Args {
		t, ok := leafTerm(a, pageSize)
		if !ok {
			return f, false
		}
		out.Terms = append(out.Terms, t)
		if i > 0 {
			out.Combine = append(out.Combine, e.Op)
		}
	}
	return out, true
}

// leafTerm is the formula term of a binary operation over two leaves.
func leafTerm(t *Expr, pageSize int) (nvme.Term, bool) {
	if t.leaf || len(t.Args) != 2 || !t.Args[0].leaf || !t.Args[1].leaf {
		return nvme.Term{}, false
	}
	return nvme.Term{
		M:  nvme.Operand{LBA: t.Args[0].LPN, Length: pageSize},
		N:  nvme.Operand{LBA: t.Args[1].LPN, Length: pageSize},
		Op: t.Op,
	}, true
}

// FromBatches lifts device-parsed batches back into an expression,
// inverting ToFormula: each single-page batch becomes a binary term, and
// terms fold left-to-right with the extra-batch operations. It rejects
// multi-sub-operation or sub-page batches — the planner only emits
// whole-page single-sub terms.
func FromBatches(batches []nvme.Batch, pageSize int) (*Expr, error) {
	return new(Arena).FromBatches(batches, pageSize)
}

// Arena holds the nodes of trees lifted from parsed batches, so a caller
// that keeps one lifts without allocating. A tree lifted into it is valid
// until the arena's next lift, which overwrites its nodes: nothing may
// keep the tree, or a tree Normalize built from it, past that point. The
// zero value is ready to use; not safe for concurrent use.
type Arena struct {
	nodes []Expr
	args  []*Expr
}

// FromBatches is the package-level FromBatches into the arena. A run of
// terms joined by one associative extra-batch operation (AND, OR, XOR)
// lifts to one n-ary node, as Normalize flattens the left fold, so the
// lift of a normalized query's formula is a tree normalization returns
// as it is.
func (a *Arena) FromBatches(batches []nvme.Batch, pageSize int) (*Expr, error) {
	n := len(batches)
	if n == 0 {
		return nil, fmt.Errorf("%w: no batches", ErrBadExpr)
	}
	// Nodes are handed out by address, so both arrays are sized before
	// the first one: n terms over 2n leaves and at most n-1 combines, and
	// 2n term arguments ahead of at most 2(n-1) combine arguments.
	a.nodes = slices.Grow(a.nodes[:0], 4*n)
	a.args = slices.Grow(a.args[:0], 4*n)[:2*n]
	var acc *Expr
	for i, b := range batches {
		if len(b.Subs) != 1 {
			return nil, fmt.Errorf("%w: batch %d has %d sub-operations, planner terms have 1",
				ErrBadExpr, i, len(b.Subs))
		}
		sub := b.Subs[0]
		if sub.SectorOffset != 0 || sub.NSectorOffset != 0 || sub.Length != pageSize {
			return nil, fmt.Errorf("%w: batch %d is sub-page (%d@%d), planner terms are whole pages",
				ErrBadExpr, i, sub.Length, sub.SectorOffset)
		}
		termArgs := a.args[2*i : 2*i+2 : 2*i+2]
		termArgs[0], termArgs[1] = a.node(Expr{LPN: sub.M, leaf: true}), a.node(Expr{LPN: sub.N, leaf: true})
		term := a.node(Expr{Op: b.Op, Args: termArgs})
		if acc == nil {
			acc = term
			continue
		}
		// The previous batch's extra-batch op combines it with this term.
		prev := batches[i-1]
		if !prev.HasNext {
			return nil, fmt.Errorf("%w: batch %d has no extra-batch op but batch %d follows",
				ErrBadExpr, i-1, i)
		}
		// Past the first batch acc is a combine node whose arguments are
		// the arena's last, so a run of its operation extends them in
		// place.
		if i > 1 && acc.Op == prev.Extra && associative(prev.Extra) {
			a.args = append(a.args, term)
			k := len(a.args)
			acc.Args = a.args[k-len(acc.Args)-1 : k : k]
			continue
		}
		lo := len(a.args)
		a.args = append(a.args, acc, term)
		acc = a.node(Expr{Op: prev.Extra, Args: a.args[lo:len(a.args):len(a.args)]})
	}
	if err := acc.check(); err != nil {
		return nil, err
	}
	return acc, nil
}

// node places n in the arena and returns its address.
func (a *Arena) node(n Expr) *Expr {
	a.nodes = append(a.nodes, n)
	return &a.nodes[len(a.nodes)-1]
}

// associative reports whether op folds as one n-ary node.
func associative(op latch.Op) bool {
	return op == latch.OpAnd || op == latch.OpOr || op == latch.OpXor
}

// RoundTrip pushes an expression through the full host-interface path —
// formula lowering, wire encoding, device-side parse, and lifting back —
// and verifies the reconstruction is canonically identical to the
// original. Returns the reconstructed expression and ok=true when the
// expression is wire-expressible; ok=false (and no error) when it is
// not. An error means the round-trip corrupted the query, which is a
// bug, never an expected outcome.
func RoundTrip(e *Expr, pageSize int) (*Expr, bool, error) {
	n, err := Normalize(e)
	if err != nil {
		return nil, false, err
	}
	f, ok := ToFormula(n, pageSize)
	if !ok {
		return nil, false, nil
	}
	batches, err := nvme.RoundTrip(f, pageSize)
	if err != nil {
		return nil, false, fmt.Errorf("plan: formula round-trip: %w", err)
	}
	back, err := FromBatches(batches, pageSize)
	if err != nil {
		return nil, false, err
	}
	backN, err := Normalize(back)
	if err != nil {
		return nil, false, err
	}
	if backN.Key() != n.Key() {
		return nil, false, fmt.Errorf("plan: query changed across the wire: %q became %q",
			n.Key(), backN.Key())
	}
	return backN, true, nil
}
