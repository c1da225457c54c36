package plan

import (
	"fmt"
	"slices"
	"strconv"

	"parabit/internal/latch"
)

// StepKind classifies one planned execution step.
type StepKind uint8

const (
	// StepRead is a plain page read: the whole query was a leaf.
	StepRead StepKind = iota
	// StepFused folds two or more operands with one associative operation
	// (AND, OR or XOR) as a single chained latch operation — the fusion
	// the planner exists to find.
	StepFused
	// StepOp applies a complementing binary operation (XNOR, NAND, NOR)
	// to exactly two operands.
	StepOp
	// StepNot complements one operand.
	StepNot
)

func (k StepKind) String() string {
	switch k {
	case StepRead:
		return "read"
	case StepFused:
		return "fused"
	case StepOp:
		return "op"
	case StepNot:
		return "not"
	}
	return "unknown"
}

// Ref names one input of a step: a logical page, or the result of an
// earlier step.
type Ref struct {
	Leaf bool
	LPN  uint64 // valid when Leaf
	Step int    // index into Plan.Steps when !Leaf
}

// Step is one unit of device work. Steps are topologically ordered: a
// step only references earlier steps.
type Step struct {
	Kind StepKind
	Op   latch.Op
	Args []Ref
	// Key is the canonical cache key of the sub-expression this step
	// computes (Expr.Key form).
	Key string
	// Leaves are the de-duplicated logical pages this step's value
	// transitively depends on — the cache entry's invalidation set.
	Leaves []uint64
}

// Plan is a compiled query: steps in execution order, the last step
// producing the query result.
type Plan struct {
	Steps []Step
	// FusedChains counts StepFused steps — chains the planner fused
	// instead of issuing pairwise.
	FusedChains int
	// FusedOperands counts operands covered by fused chains.
	FusedOperands int
}

// Root returns the index of the final step.
func (p *Plan) Root() int { return len(p.Steps) - 1 }

// Normalize rewrites an expression into the planner's canonical form:
// nested chains of one associative operation flatten into a single n-ary
// node, double complements cancel, complements fold into complementing
// operations (NOT(AND(a,b)) becomes NAND(a,b) and vice versa NAND under a
// NOT unfolds back to AND), and the complement pairs XNOR/NAND/NOR under
// a NOT unwrap to their associative bases. The result is semantically
// identical (same Eval) and maximally fusable.
//
// Normalization is copy-on-write: a subtree that is already canonical is
// returned as is, so normalizing a canonical tree returns its input and
// allocates nothing. The result may share subtrees with e (see Expr).
func Normalize(e *Expr) (*Expr, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return normalize(e), nil
}

func normalize(e *Expr) *Expr {
	if e.leaf {
		return e
	}
	args, changed := e.Args, false
	for i, a := range e.Args {
		n := normalize(a)
		if n == a {
			continue
		}
		if !changed {
			args, changed = slices.Clone(e.Args), true
		}
		args[i] = n
	}
	switch e.Op {
	case latch.OpNotLSB, latch.OpNotMSB:
		a := args[0]
		if !a.leaf {
			switch a.Op {
			case latch.OpNotLSB, latch.OpNotMSB:
				return a.Args[0]
			case latch.OpAnd:
				if len(a.Args) == 2 {
					return node(latch.OpNand, a.Args...)
				}
			case latch.OpOr:
				if len(a.Args) == 2 {
					return node(latch.OpNor, a.Args...)
				}
			case latch.OpXor:
				if len(a.Args) == 2 {
					return node(latch.OpXnor, a.Args...)
				}
			// The unwrapped base op may flatten with its arguments.
			case latch.OpNand:
				return normalize(node(latch.OpAnd, a.Args...))
			case latch.OpNor:
				return normalize(node(latch.OpOr, a.Args...))
			case latch.OpXnor:
				return normalize(node(latch.OpXor, a.Args...))
			}
		}
		if !changed && e.Op == latch.OpNotLSB {
			return e
		}
		return node(latch.OpNotLSB, a)
	case latch.OpAnd, latch.OpOr, latch.OpXor:
		// Flatten same-op children: And(And(a,b),c) = And(a,b,c).
		width := 0
		for _, a := range args {
			if !a.leaf && a.Op == e.Op {
				width += len(a.Args)
			} else {
				width++
			}
		}
		if width == len(args) {
			break
		}
		flat := make([]*Expr, 0, width)
		for _, a := range args {
			if !a.leaf && a.Op == e.Op {
				flat = append(flat, a.Args...)
			} else {
				flat = append(flat, a)
			}
		}
		return node(e.Op, flat...)
	}
	if !changed {
		return e
	}
	return node(e.Op, args...)
}

// compiler accumulates steps with common-sub-expression sharing.
type compiler struct {
	steps []Step
	memo  map[string]Ref // canonical key -> computed ref
	plan  *Plan
}

// Compile lowers an expression to an executable plan: normalization,
// common-sub-expression elimination (structurally equal sub-queries,
// including reordered commutative ones, compile to one shared step), and
// chain fusion, split into segments of at most latch.MaxChain operands.
func Compile(e *Expr) (*Plan, error) {
	n, err := Normalize(e)
	if err != nil {
		return nil, err
	}
	c := &compiler{memo: map[string]Ref{}, plan: &Plan{}}
	root, key, err := c.emit(n)
	if err != nil {
		return nil, err
	}
	if root.Leaf {
		// The whole query is one page: a plain read step.
		c.add(Step{
			Kind:   StepRead,
			Args:   []Ref{root},
			Key:    key,
			Leaves: []uint64{root.LPN},
		})
	}
	c.plan.Steps = c.steps
	return c.plan, nil
}

func (c *compiler) add(s Step) Ref {
	c.steps = append(c.steps, s)
	r := Ref{Step: len(c.steps) - 1}
	c.memo[s.Key] = r
	return r
}

func (c *compiler) refKey(r Ref) string {
	if r.Leaf {
		return strconv.FormatUint(r.LPN, 10)
	}
	return c.steps[r.Step].Key
}

// nodeKey is the canonical key of an op over already-compiled refs.
func (c *compiler) nodeKey(op latch.Op, refs []Ref) string {
	keys := make([]string, len(refs))
	for i, r := range refs {
		keys[i] = c.refKey(r)
	}
	return joinKey(op, keys)
}

// leavesOf returns the sorted, de-duplicated logical pages the refs
// depend on.
func (c *compiler) leavesOf(refs []Ref) []uint64 {
	n := 0
	for _, r := range refs {
		if r.Leaf {
			n++
		} else {
			n += len(c.steps[r.Step].Leaves)
		}
	}
	out := make([]uint64, 0, n)
	for _, r := range refs {
		if r.Leaf {
			out = append(out, r.LPN)
		} else {
			out = append(out, c.steps[r.Step].Leaves...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// emit lowers e and returns its ref together with its canonical key
// (Expr.Key form), built once per node from the children's keys.
func (c *compiler) emit(e *Expr) (Ref, string, error) {
	if e.leaf {
		return Ref{Leaf: true, LPN: e.LPN}, strconv.FormatUint(e.LPN, 10), nil
	}
	refs := make([]Ref, len(e.Args))
	var buf [8]string
	keys := buf[:0]
	// A step's key is spelled over its refs' keys. It differs from the
	// expression key only when a child compiled to a split chain, whose
	// step carries the nested segment key.
	refKeysMatch := true
	for i, a := range e.Args {
		r, k, err := c.emit(a)
		if err != nil {
			return Ref{}, "", err
		}
		refs[i], keys = r, append(keys, k)
		if !r.Leaf && c.steps[r.Step].Key != k {
			refKeysMatch = false
		}
	}
	key := joinKey(e.Op, keys)
	if r, ok := c.memo[key]; ok {
		return r, key, nil
	}
	stepKey := key
	if !refKeysMatch {
		stepKey = c.nodeKey(e.Op, refs)
	}
	switch e.Op {
	case latch.OpAnd, latch.OpOr, latch.OpXor:
		r := c.emitFused(e.Op, refs, stepKey)
		// Split chains register under nested segment keys; remember the
		// flat n-ary key too, so an identical sub-query re-uses the
		// compiled result.
		c.memo[key] = r
		return r, key, nil
	case latch.OpXnor, latch.OpNand, latch.OpNor:
		return c.add(Step{
			Kind:   StepOp,
			Op:     e.Op,
			Args:   refs,
			Key:    stepKey,
			Leaves: c.leavesOf(refs),
		}), key, nil
	case latch.OpNotLSB, latch.OpNotMSB:
		return c.add(Step{
			Kind:   StepNot,
			Op:     latch.OpNotLSB,
			Args:   refs,
			Key:    stepKey,
			Leaves: c.leavesOf(refs),
		}), key, nil
	}
	return Ref{}, "", fmt.Errorf("%w: op %v", ErrBadExpr, e.Op)
}

// emitFused lowers an n-ary associative fold whose step key over refs is
// key. A chain longer than latch.MaxChain splits into segments of at most
// that many operands, whose results fold in a further fused step. The
// split is a plan-shape rule, not a circuit limit: the device runs a
// longer location-free chain as one program with its body looped, at the
// same senses. Split segments are independent and run in parallel;
// without the split, the exec golden's 12-operand XOR query finishes at
// 83.73 ms instead of 82.35 ms under ParaBit and at 203.71 ms instead of
// 199.42 ms under ParaBit-ReAlloc.
func (c *compiler) emitFused(op latch.Op, refs []Ref, key string) Ref {
	maxK := latch.MaxChain(op)
	for len(refs) > maxK {
		next := make([]Ref, 0, (len(refs)+maxK-1)/maxK)
		for lo := 0; lo < len(refs); lo += maxK {
			hi := min(lo+maxK, len(refs))
			// A single trailing operand cannot chain alone; carry it to
			// the next level, where it folds with the segment results.
			if hi-lo == 1 {
				next = append(next, refs[lo])
				continue
			}
			seg := refs[lo:hi:hi]
			next = append(next, c.fuseStep(op, seg, c.nodeKey(op, seg)))
		}
		refs = next
		key = c.nodeKey(op, refs)
	}
	return c.fuseStep(op, refs, key)
}

// fuseStep adds the fused step folding refs, whose key is key, unless an
// identical one exists. refs becomes the step's Args and must not change.
func (c *compiler) fuseStep(op latch.Op, refs []Ref, key string) Ref {
	if r, ok := c.memo[key]; ok {
		return r
	}
	c.plan.FusedChains++
	c.plan.FusedOperands += len(refs)
	return c.add(Step{
		Kind:   StepFused,
		Op:     op,
		Args:   refs,
		Key:    key,
		Leaves: c.leavesOf(refs),
	})
}
