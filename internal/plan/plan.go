package plan

import (
	"cmp"
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
	// Key is the result-cache key of the sub-expression this step
	// computes; Plan.KeyString spells it in Expr.Key form.
	Key Key
	// Leaves are the de-duplicated logical pages this step's value
	// transitively depends on — the cache entry's invalidation set.
	Leaves []uint64
	// key is the compiler's id of Key.
	key int32
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

// KeyString spells step i's key in Expr.Key form, for diagnostics and
// the key golden; the device's query path never renders one.
func (p *Plan) KeyString(i int) string {
	s := &p.Steps[i]
	if s.Kind == StepRead {
		return strconv.FormatUint(s.Args[0].LPN, 10)
	}
	keys := make([]string, len(s.Args))
	for j, r := range s.Args {
		if r.Leaf {
			keys[j] = strconv.FormatUint(r.LPN, 10)
		} else {
			keys[j] = p.KeyString(r.Step)
		}
	}
	return joinKey(s.Op, keys)
}

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

// Compiler lowers expressions to plans with common-sub-expression
// sharing. It keeps every table and slice of one compile as scratch for
// the next, so a warm compile allocates nothing: the plan it returns, and
// every slice in it, is valid until the next compile on the same
// Compiler. The zero value is ready to use; scratch grows on first use.
// Not safe for concurrent use.
type Compiler struct {
	plan Plan
	// lpns, when non-nil, is the page the i-th leaf reads, in Leaves
	// order; nleaf counts the leaves read so far.
	lpns  []uint64
	nleaf int

	// keys hash-conses the canonical keys of one compile, and index maps
	// a structural hash to the first key interned under it. Equal
	// structures intern to one id, so sharing compares ids; a different
	// structure met under a hash gets an id of its own, and its lookups
	// miss.
	keys  []keyNode
	index map[uint64]int32
	// words is the arena of the keys' children and the steps' Leaves and
	// Key shapes; args is the arena of the steps' Args.
	words []uint64
	args  []Ref
	// stack holds the arguments of the nodes being lowered.
	stack []arg
}

// keyNode is one interned canonical key: a leaf page, or an operation
// over the key ids words[lo:hi], sorted by hash, then id.
type keyNode struct {
	hash   uint64
	lpn    uint64
	op     latch.Op
	leaf   bool
	lo, hi int32
	// step is the step computing the key, or -1.
	step int32
}

// arg is one lowered argument: its ref and its expression key's id.
type arg struct {
	ref Ref
	id  int32
}

// Compile lowers an expression to an executable plan: normalization,
// common-sub-expression elimination (structurally equal sub-queries,
// including reordered commutative ones, compile to one shared step), and
// chain fusion, split into segments of at most latch.MaxChain operands.
// The plan is the caller's; a Compiler reuses one plan instead.
func Compile(e *Expr) (*Plan, error) { return new(Compiler).Compile(e, nil) }

// Compile lowers e like the package-level Compile, into the compiler's
// scratch. A non-nil lpns substitutes pages for e's leaves: the i-th leaf
// in Leaves order reads lpns[i], so a tree over column keys compiles over
// one shard's pages without being rebuilt. lpns then holds exactly one
// page per leaf.
func (c *Compiler) Compile(e *Expr, lpns []uint64) (*Plan, error) {
	n, err := Normalize(e)
	if err != nil {
		return nil, err
	}
	c.reserve(n)
	c.reset(lpns)
	root, key, err := c.emit(n)
	c.lpns = nil
	if err != nil {
		return nil, err
	}
	if lpns != nil && c.nleaf != len(lpns) {
		return nil, fmt.Errorf("%w: %d leaves over %d pages", ErrBadExpr, c.nleaf, len(lpns))
	}
	if root.Leaf {
		// The whole query is one page: a plain read step.
		c.add(StepRead, 0, []arg{{ref: root}}, key)
	}
	return &c.plan, nil
}

func (c *Compiler) reset(lpns []uint64) {
	c.plan = Plan{Steps: c.plan.Steps[:0]}
	c.lpns, c.nleaf = lpns, 0
	c.keys, c.words, c.args = c.keys[:0], c.words[:0], c.args[:0]
	clear(c.index)
}

// reserve sizes a fresh compiler's scratch for e, so a first compile
// grows each slice about once instead of doubling up to its size.
func (c *Compiler) reserve(e *Expr) {
	if c.index != nil {
		return
	}
	n := e.size()
	c.index = make(map[uint64]int32, n)
	c.plan.Steps = make([]Step, 0, n)
	c.keys = make([]keyNode, 0, 2*n)
	c.words = make([]uint64, 0, 4*n)
	c.args = make([]Ref, 0, n)
	c.stack = make([]arg, 0, n)
}

// size counts e's nodes.
func (e *Expr) size() int {
	n := 1
	for _, a := range e.Args {
		n += a.size()
	}
	return n
}

// intern returns the id of the key n, whose children are words[n.lo:n.hi]
// at the arena's tail: an existing id for an equal structure, dropping
// the tail, or a new id.
func (c *Compiler) intern(n keyNode) int32 {
	id, hashed := c.index[n.hash]
	if hashed {
		k := c.keys[id]
		if k.leaf == n.leaf && k.lpn == n.lpn && k.op == n.op &&
			slices.Equal(c.words[k.lo:k.hi], c.words[n.lo:n.hi]) {
			c.words = c.words[:n.lo]
			return id
		}
	}
	id = int32(len(c.keys))
	n.step = -1
	c.keys = append(c.keys, n)
	if !hashed {
		c.index[n.hash] = id
	}
	return id
}

func (c *Compiler) internLeaf(lpn uint64) int32 {
	lo := int32(len(c.words))
	return c.intern(keyNode{hash: leafHash(lpn), lpn: lpn, leaf: true, lo: lo, hi: lo})
}

// internNode interns op over the key ids of args (ref keys when refs is
// set, else expression keys). The children sort by hash, then id: equal
// structures have equal child multisets, so they sort alike, and the
// hash folds the sorted child hashes.
func (c *Compiler) internNode(op latch.Op, args []arg, refs bool) int32 {
	if op == latch.OpNotMSB {
		op = latch.OpNotLSB // both spell NOT
	}
	lo := len(c.words)
	for _, a := range args {
		id := a.id
		if refs {
			id = c.refKey(a.ref)
		}
		c.words = append(c.words, uint64(id))
	}
	kids, keys := c.words[lo:], c.keys
	slices.SortFunc(kids, func(a, b uint64) int {
		if ha, hb := keys[a].hash, keys[b].hash; ha != hb {
			return cmp.Compare(ha, hb)
		}
		return cmp.Compare(a, b)
	})
	h := mix(uint64(op) ^ nodeSalt)
	for _, k := range kids {
		h = mix(h ^ keys[k].hash)
	}
	return c.intern(keyNode{hash: keyHash(h), op: op, lo: int32(lo), hi: int32(len(c.words))})
}

// refKey is the id of a ref's key: a leaf's, or its step's.
func (c *Compiler) refKey(r Ref) int32 {
	if r.Leaf {
		return c.internLeaf(r.LPN)
	}
	return c.plan.Steps[r.Step].key
}

// appendShape appends key id's canonical form (Key.Shape) to the arena.
func (c *Compiler) appendShape(id int32) {
	k := c.keys[id]
	if k.leaf {
		c.words = append(c.words, 0, k.lpn)
		return
	}
	c.words = append(c.words, nodeTag(k.op, int(k.hi-k.lo)))
	for i := k.lo; i < k.hi; i++ {
		c.appendShape(int32(c.words[i]))
	}
}

// add appends a step over args' refs whose key is key.
func (c *Compiler) add(kind StepKind, op latch.Op, args []arg, key int32) Ref {
	i := len(c.plan.Steps)
	lo := len(c.args)
	for _, a := range args {
		c.args = append(c.args, a.ref)
	}
	refs := c.args[lo:len(c.args):len(c.args)]
	shape := len(c.words)
	c.appendShape(key)
	c.plan.Steps = append(c.plan.Steps, Step{
		Kind:   kind,
		Op:     op,
		Args:   refs,
		Key:    Key{Hash: c.keys[key].hash, Shape: c.words[shape:len(c.words):len(c.words)]},
		Leaves: c.leavesOf(refs),
		key:    key,
	})
	c.keys[key].step = int32(i)
	return Ref{Step: i}
}

// leavesOf returns the sorted, de-duplicated logical pages the refs
// depend on, in the arena.
func (c *Compiler) leavesOf(refs []Ref) []uint64 {
	lo := len(c.words)
	for _, r := range refs {
		if r.Leaf {
			c.words = append(c.words, r.LPN)
		} else {
			c.words = append(c.words, c.plan.Steps[r.Step].Leaves...)
		}
	}
	out := c.words[lo:]
	slices.Sort(out)
	c.words = c.words[:lo+len(slices.Compact(out))]
	return c.words[lo:len(c.words):len(c.words)]
}

// emit lowers e and returns its ref together with the id of its
// canonical key (Expr.Key form), interned once per node from the
// children's key ids.
func (c *Compiler) emit(e *Expr) (Ref, int32, error) {
	if e.leaf {
		lpn := e.LPN
		if c.lpns != nil {
			if c.nleaf == len(c.lpns) {
				return Ref{}, 0, fmt.Errorf("%w: more leaves than the %d pages given", ErrBadExpr, len(c.lpns))
			}
			lpn = c.lpns[c.nleaf]
			c.nleaf++
		}
		return Ref{Leaf: true, LPN: lpn}, c.internLeaf(lpn), nil
	}
	base := len(c.stack)
	for _, a := range e.Args {
		r, id, err := c.emit(a)
		if err != nil {
			return Ref{}, 0, err
		}
		c.stack = append(c.stack, arg{r, id})
	}
	r, key, err := c.emitNode(e.Op, c.stack[base:])
	c.stack = c.stack[:base]
	return r, key, err
}

// emitNode lowers op over its lowered arguments.
func (c *Compiler) emitNode(op latch.Op, args []arg) (Ref, int32, error) {
	key := c.internNode(op, args, false)
	if s := c.keys[key].step; s >= 0 {
		return Ref{Step: int(s)}, key, nil
	}
	// A step's key is spelled over its refs' keys. It differs from the
	// expression key only when a child compiled to a split chain, whose
	// step carries the nested segment key.
	stepKey := key
	for _, a := range args {
		if !a.ref.Leaf && c.plan.Steps[a.ref.Step].key != a.id {
			stepKey = c.internNode(op, args, true)
			break
		}
	}
	var r Ref
	switch op {
	case latch.OpAnd, latch.OpOr, latch.OpXor:
		r = c.emitFused(op, args, stepKey)
	case latch.OpXnor, latch.OpNand, latch.OpNor:
		r = c.add(StepOp, op, args, stepKey)
	case latch.OpNotLSB, latch.OpNotMSB:
		r = c.add(StepNot, latch.OpNotLSB, args, stepKey)
	default:
		return Ref{}, 0, fmt.Errorf("%w: op %v", ErrBadExpr, op)
	}
	// The step registers under its step key (split chains under nested
	// segment keys); remember the expression key too, so an identical
	// sub-query re-uses the compiled result.
	c.keys[key].step = int32(r.Step)
	return r, key, nil
}

// emitFused lowers an n-ary associative fold whose step key over args'
// refs is key. A chain longer than latch.MaxChain splits into segments of
// at most that many operands, whose results fold in a further fused step.
// The split is a plan-shape rule, not a circuit limit: the device runs a
// longer location-free chain as one program with its body looped, at the
// same senses. Split segments are independent and run in parallel;
// without the split, the exec golden's 12-operand XOR query finishes at
// 83.73 ms instead of 82.35 ms under ParaBit and at 203.71 ms instead of
// 199.42 ms under ParaBit-ReAlloc.
func (c *Compiler) emitFused(op latch.Op, args []arg, key int32) Ref {
	maxK := latch.MaxChain(op)
	for len(args) > maxK {
		// The next level's arguments go on the stack above this level's.
		base := len(c.stack)
		for lo := 0; lo < len(args); lo += maxK {
			hi := min(lo+maxK, len(args))
			// A single trailing operand cannot chain alone; carry it to
			// the next level, where it folds with the segment results.
			if hi-lo == 1 {
				c.stack = append(c.stack, args[lo])
				continue
			}
			seg := args[lo:hi]
			c.stack = append(c.stack, arg{ref: c.fuseStep(op, seg, c.internNode(op, seg, true))})
		}
		args = c.stack[base:]
		key = c.internNode(op, args, true)
	}
	return c.fuseStep(op, args, key)
}

// fuseStep adds the fused step folding args, whose key is key, unless an
// identical one exists.
func (c *Compiler) fuseStep(op latch.Op, args []arg, key int32) Ref {
	if s := c.keys[key].step; s >= 0 {
		return Ref{Step: int(s)}
	}
	c.plan.FusedChains++
	c.plan.FusedOperands += len(args)
	return c.add(StepFused, op, args, key)
}
