// Package plan compiles multi-operation bitmap-query expressions into
// fused execution plans for the ParaBit device.
//
// A query is an expression tree over logical pages: AND/OR/XOR/XNOR
// combines, unary NOT, arbitrarily nested. Issued naively, every interior
// node costs a full sense-settle-transfer round (plus a reallocation for
// the chained step) — exactly the per-operation overhead the paper's
// latch tables amortize. The planner instead:
//
//   - normalizes the tree (flattens associative chains, folds NOT into
//     the complement operation of its operand node);
//   - fuses associative runs into chained location-free reductions,
//     split at latch.MaxChain operands (the longest chained program
//     latch validates) so that the segments run in parallel;
//   - assigns every sub-expression a canonical key so structurally equal
//     sub-queries share one controller-DRAM cache slot (see Cache).
//
// The package is pure planning: it never touches a device. internal/ssd
// executes plans; internal/nvme carries them over the host interface.
package plan

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"parabit/internal/latch"
)

// Expr is a node of a query expression tree. Leaves name logical pages;
// interior nodes apply a bitwise operation to their children.
//
// Trees are immutable once built: nothing may change a node's fields or
// its Args slice afterwards. Normalize returns subtrees of its input
// where they are already canonical, so one node can belong to several
// trees at once.
type Expr struct {
	// LPN is the logical page a leaf reads. Valid only when leaf.
	LPN  uint64
	leaf bool
	// Op is the node operation: OpAnd/OpOr/OpXor/OpXnor/OpNand/OpNor
	// with two or more children, or OpNotLSB with exactly one (the
	// planner's spelling of logical NOT).
	Op   latch.Op
	Args []*Expr
}

// Leaf returns an expression reading one logical page.
func Leaf(lpn uint64) *Expr { return &Expr{LPN: lpn, leaf: true} }

// IsLeaf reports whether the node is a page read.
func (e *Expr) IsLeaf() bool { return e.leaf }

// And combines two or more sub-expressions with bitwise AND.
func And(args ...*Expr) *Expr { return node(latch.OpAnd, args...) }

// Or combines two or more sub-expressions with bitwise OR.
func Or(args ...*Expr) *Expr { return node(latch.OpOr, args...) }

// Xor combines two or more sub-expressions with bitwise XOR.
func Xor(args ...*Expr) *Expr { return node(latch.OpXor, args...) }

// Xnor combines two sub-expressions with bitwise XNOR.
func Xnor(a, b *Expr) *Expr { return node(latch.OpXnor, a, b) }

// Nand combines two sub-expressions with bitwise NAND.
func Nand(a, b *Expr) *Expr { return node(latch.OpNand, a, b) }

// Nor combines two sub-expressions with bitwise NOR.
func Nor(a, b *Expr) *Expr { return node(latch.OpNor, a, b) }

// Not complements a sub-expression.
func Not(a *Expr) *Expr { return node(latch.OpNotLSB, a) }

func node(op latch.Op, args ...*Expr) *Expr {
	return &Expr{Op: op, Args: args}
}

// ErrBadExpr reports a malformed expression tree.
var ErrBadExpr = errors.New("plan: malformed expression")

// check validates arities over the whole tree.
func (e *Expr) check() error {
	if e == nil {
		return fmt.Errorf("%w: nil node", ErrBadExpr)
	}
	if e.leaf {
		return nil
	}
	switch e.Op {
	case latch.OpNotLSB, latch.OpNotMSB:
		if len(e.Args) != 1 {
			return fmt.Errorf("%w: NOT wants 1 argument, has %d", ErrBadExpr, len(e.Args))
		}
	case latch.OpAnd, latch.OpOr, latch.OpXor:
		if len(e.Args) < 2 {
			return fmt.Errorf("%w: %v wants at least 2 arguments, has %d", ErrBadExpr, e.Op, len(e.Args))
		}
	case latch.OpXnor, latch.OpNand, latch.OpNor:
		if len(e.Args) != 2 {
			return fmt.Errorf("%w: %v wants exactly 2 arguments, has %d", ErrBadExpr, e.Op, len(e.Args))
		}
	default:
		return fmt.Errorf("%w: op %v cannot appear in a query", ErrBadExpr, e.Op)
	}
	for _, a := range e.Args {
		if err := a.check(); err != nil {
			return err
		}
	}
	return nil
}

// Leaves returns the LPN of every leaf under e, in tree order, possibly
// with duplicates.
func (e *Expr) Leaves() []uint64 { return e.AppendLeaves(nil) }

// AppendLeaves appends the LPN of every leaf under e to dst, in Leaves
// order, and returns the extended slice.
func (e *Expr) AppendLeaves(dst []uint64) []uint64 {
	if e.leaf {
		return append(dst, e.LPN)
	}
	for _, a := range e.Args {
		dst = a.AppendLeaves(dst)
	}
	return dst
}

// MapLeaves returns a copy of e whose leaves read f(lpn) instead, with f
// called once per leaf in Leaves order. Interior nodes keep their
// operation and arity.
func (e *Expr) MapLeaves(f func(lpn uint64) uint64) *Expr {
	if e.leaf {
		return Leaf(f(e.LPN))
	}
	args := make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.MapLeaves(f)
	}
	return node(e.Op, args...)
}

// Eval computes the expression in software over the pages returned by
// read — the golden reference the differential tests compare device
// results against.
func (e *Expr) Eval(read func(lpn uint64) ([]byte, error)) ([]byte, error) {
	if e.leaf {
		p, err := read(e.LPN)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), p...), nil
	}
	if e.Op == latch.OpNotLSB || e.Op == latch.OpNotMSB {
		p, err := e.Args[0].Eval(read)
		if err != nil {
			return nil, err
		}
		for i := range p {
			p[i] = ^p[i]
		}
		return p, nil
	}
	acc, err := e.Args[0].Eval(read)
	if err != nil {
		return nil, err
	}
	base, invert := e.Op.Base()
	for _, a := range e.Args[1:] {
		p, err := a.Eval(read)
		if err != nil {
			return nil, err
		}
		if len(p) != len(acc) {
			return nil, fmt.Errorf("%w: operand sizes %d vs %d", ErrBadExpr, len(p), len(acc))
		}
		for i := range acc {
			switch base {
			case latch.OpAnd:
				acc[i] &= p[i]
			case latch.OpOr:
				acc[i] |= p[i]
			case latch.OpXor:
				acc[i] ^= p[i]
			}
		}
	}
	if invert {
		for i := range acc {
			acc[i] = ^acc[i]
		}
	}
	return acc, nil
}

// String renders the expression in the parser's infix syntax.
func (e *Expr) String() string {
	if e.leaf {
		return strconv.FormatUint(e.LPN, 10)
	}
	if e.Op == latch.OpNotLSB || e.Op == latch.OpNotMSB {
		return "!" + paren(e.Args[0])
	}
	var op string
	switch e.Op {
	case latch.OpAnd:
		op = " & "
	case latch.OpOr:
		op = " | "
	case latch.OpXor:
		op = " ^ "
	case latch.OpXnor:
		op = " ~^ "
	case latch.OpNand:
		op = " ~& "
	case latch.OpNor:
		op = " ~| "
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = paren(a)
	}
	return strings.Join(parts, op)
}

func paren(e *Expr) string {
	if e.leaf {
		return e.String()
	}
	return "(" + e.String() + ")"
}

// Key returns the canonical cache key of the expression: an s-expression
// with the arguments of commutative operations sorted, so structurally
// equal queries — including reordered ones — share a cache slot.
func (e *Expr) Key() string {
	if e.leaf {
		return strconv.FormatUint(e.LPN, 10)
	}
	keys := make([]string, len(e.Args))
	for i, a := range e.Args {
		keys[i] = a.Key()
	}
	return joinKey(e.Op, keys)
}

// joinKey renders the canonical key of an op node from its arguments'
// keys, sorting keys in place: every multi-operand query op is
// commutative, and NOT is unary. Expr.Key and Plan.KeyString both spell
// keys through it, so they agree byte for byte.
func joinKey(op latch.Op, keys []string) string {
	slices.Sort(keys)
	var name string
	switch op {
	case latch.OpAnd:
		name = "and"
	case latch.OpOr:
		name = "or"
	case latch.OpXor:
		name = "xor"
	case latch.OpXnor:
		name = "xnor"
	case latch.OpNand:
		name = "nand"
	case latch.OpNor:
		name = "nor"
	case latch.OpNotLSB, latch.OpNotMSB:
		name = "not"
	default:
		name = "op" + strconv.Itoa(int(op))
	}
	size := len(name) + len(keys) + 1
	for _, k := range keys {
		size += len(k)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
	}
	b.WriteByte(')')
	return b.String()
}

// Parse reads the infix query syntax:
//
//	expr  := or
//	or    := xor (('|' | '~|') xor)*
//	xor   := and (('^' | '~^') and)*
//	and   := unary (('&' | '~&') unary)*
//	unary := '!' unary | '(' expr ')' | lpn
//
// Precedence: ! over & over ^ over |, all left-associative. The inverted
// forms bind like their base operator: "1 ~& 2" is NAND(1,2). Whitespace
// is free.
func Parse(s string) (*Expr, error) {
	p := &parser{in: s}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("%w: trailing input %q", ErrBadExpr, p.in[p.pos:])
	}
	if err := e.check(); err != nil {
		return nil, err
	}
	return e, nil
}

type parser struct {
	in  string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

// peekOp matches one of the operator spellings at the cursor, longest
// first, without consuming.
func (p *parser) peekOp(ops ...string) string {
	p.skipSpace()
	for _, op := range ops {
		if strings.HasPrefix(p.in[p.pos:], op) {
			return op
		}
	}
	return ""
}

func (p *parser) parseOr() (*Expr, error) {
	e, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peekOp("~|", "|") {
		case "~|":
			p.pos += 2
			rhs, err := p.parseXor()
			if err != nil {
				return nil, err
			}
			e = Nor(e, rhs)
		case "|":
			p.pos++
			rhs, err := p.parseXor()
			if err != nil {
				return nil, err
			}
			e = Or(e, rhs)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseXor() (*Expr, error) {
	e, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peekOp("~^", "^") {
		case "~^":
			p.pos += 2
			rhs, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			e = Xnor(e, rhs)
		case "^":
			p.pos++
			rhs, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			e = Xor(e, rhs)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAnd() (*Expr, error) {
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peekOp("~&", "&") {
		case "~&":
			p.pos += 2
			rhs, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			e = Nand(e, rhs)
		case "&":
			p.pos++
			rhs, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			e = And(e, rhs)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseUnary() (*Expr, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, fmt.Errorf("%w: unexpected end of query", ErrBadExpr)
	}
	switch p.in[p.pos] {
	case '!':
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(e), nil
	case '(':
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return nil, fmt.Errorf("%w: missing ')'", ErrBadExpr)
		}
		p.pos++
		return e, nil
	}
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("%w: want an LPN at %q", ErrBadExpr, p.in[start:])
	}
	lpn, err := strconv.ParseUint(p.in[start:p.pos], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadExpr, err)
	}
	return Leaf(lpn), nil
}
