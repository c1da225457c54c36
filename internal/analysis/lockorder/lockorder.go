// Package lockorder verifies lock acquisition ordering inside one
// package.
//
// Every sync.Mutex / sync.RWMutex struct field forms a lock class
// (Type.field); package-level mutex variables form their own classes.
// The analyzer walks each function tracking which classes are held —
// through Lock/RLock/Unlock/RUnlock, deferred unlocks, and the *Locked
// helper-suffix convention (a function named fooLocked is analyzed with
// its receiver's mutex classes held, since that is the contract its name
// declares) — and builds the package's lock-acquisition graph: an edge
// A -> B means some call path acquires B while holding A. Calls to other
// functions of the same package contribute their transitive acquisition
// sets, so an edge through a helper chain is found without any
// annotation.
//
// Reported, at the acquiring position:
//
//   - re-acquiring the same tracked mutex instance a function already
//     holds (certain self-deadlock);
//
//   - edges that participate in a cycle of the acquisition graph
//     (potential deadlock between concurrent callers taking the locks
//     in different orders), including one-class cycles where two
//     instances of a class are taken while one is held;
//
//   - edges that contradict a declared order pragma. A pragma is a
//     comment anywhere in the package of the form
//
//     //parabit:lockorder Cluster.mu < Shard.mu
//
//     declaring that Cluster.mu precedes Shard.mu: acquiring Cluster.mu
//     while holding Shard.mu is then an inversion even before any code
//     closes the cycle. Chains (A < B < C) and multiple pragmas compose
//     transitively.
//
// Function literals are analyzed as their own functions with nothing
// held: closures usually escape the defining critical section (deferred
// releases, goroutine bodies), so inheriting held locks would fabricate
// edges. Test files are exempt. Suppress a deliberate ordering with
// `//lint:ignore lockorder reason`.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"parabit/internal/analysis"
	"parabit/internal/analysis/lockutil"
)

// Analyzer is the lockorder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "build the package's inter-procedural lock-acquisition graph and report " +
		"cycles (potential deadlocks), same-instance re-acquisition, and " +
		"violations of //parabit:lockorder order pragmas",
	Run: run,
}

// class identifies one lock class: a (struct type, field) pair, or a
// package-level mutex variable.
type class struct {
	owner *types.TypeName // nil for bare variables
	name  string
}

func (c class) String() string {
	if c.owner == nil {
		return c.name
	}
	return c.owner.Name() + "." + c.name
}

// edge is one observed hold->acquire pair.
type edge struct{ from, to class }

type checker struct {
	pass  *analysis.Pass
	funcs map[*types.Func]*ast.FuncDecl
	// acq is the transitive lock-acquisition set per package function.
	acq map[*types.Func]map[class]bool
	// edges maps each observed hold->acquire pair to the lowest position
	// that creates it, where it is reported, so the report does not
	// depend on the order functions are walked in.
	edges map[edge]token.Pos
	// order is the declared precedence relation: order[a][b] means a is
	// declared to precede b.
	order map[class]map[class]bool
	// classLabels resolves pragma names back to classes.
	classLabels map[string]class
	flow        lockutil.Flow[held]
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:        pass,
		funcs:       make(map[*types.Func]*ast.FuncDecl),
		acq:         make(map[*types.Func]map[class]bool),
		edges:       make(map[edge]token.Pos),
		order:       make(map[class]map[class]bool),
		classLabels: make(map[string]class),
	}
	c.flow = lockutil.Flow[held]{
		Info:  pass.TypesInfo,
		Clone: held.clone,
		Join:  intersect,
		Expr:  c.walkExpr,
		Write: c.walkExpr,
		Go:    c.goCall,
	}
	c.index()
	if len(c.funcs) == 0 {
		return nil
	}
	c.computeAcquires()
	for fn, fd := range c.funcs {
		if pass.IsTestFile(fd.Pos()) {
			continue
		}
		c.walkFunc(fn, fd)
	}
	c.parsePragmas()
	c.report()
	return nil
}

// index collects the package's function declarations.
func (c *checker) index() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.funcs[fn] = fd
			}
		}
	}
}

// classOf resolves a mutex expression (x.mu or a bare identifier) to its
// lock class.
func (c *checker) classOf(mutexExpr ast.Expr) (class, bool) {
	base, name, ok := lockutil.MutexField(mutexExpr)
	if !ok {
		return class{}, false
	}
	if base == nil {
		id, _ := ast.Unparen(mutexExpr).(*ast.Ident)
		if id == nil {
			return class{}, false
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			return class{}, false
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == c.pass.Pkg.Scope() {
			return class{name: v.Name()}, true
		}
		// Function-local mutexes cannot participate in cross-function
		// ordering; skip them.
		return class{}, false
	}
	named := lockutil.OwnerNamed(c.pass.TypesInfo.TypeOf(base))
	if named == nil {
		return class{}, false
	}
	return class{owner: named.Obj(), name: name}, true
}

// instanceOf gives a best-effort identity for the locked instance, for
// same-instance re-acquisition detection.
func (c *checker) instanceOf(mutexExpr ast.Expr, pos token.Pos) string {
	if canon, ok := lockutil.Canon(c.pass.TypesInfo, mutexExpr); ok {
		return fmt.Sprintf("%p.%s", canon.Root, canon.Path)
	}
	return fmt.Sprintf("pos%d", pos)
}

// computeAcquires fixpoints the transitive acquisition sets over the
// package-local call graph.
func (c *checker) computeAcquires() {
	direct := make(map[*types.Func]map[class]bool)
	callees := make(map[*types.Func]map[*types.Func]bool)
	for fn, fd := range c.funcs {
		d := make(map[class]bool)
		cs := make(map[*types.Func]bool)
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Closures execute outside the defining context; their
				// acquisitions are not the enclosing function's.
				return false
			case *ast.CallExpr:
				if op, mutexExpr := lockutil.ClassifyLockCall(c.pass.TypesInfo, n); op == lockutil.OpLock || op == lockutil.OpRLock {
					if cls, ok := c.classOf(mutexExpr); ok {
						d[cls] = true
					}
					return true
				}
				if callee := c.calleeOf(n); callee != nil {
					cs[callee] = true
				}
			}
			return true
		}
		ast.Inspect(fd.Body, walk)
		direct[fn] = d
		callees[fn] = cs
	}
	for fn, d := range direct {
		c.acq[fn] = make(map[class]bool, len(d))
		for cls := range d {
			c.acq[fn][cls] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range c.funcs {
			for callee := range callees[fn] {
				for cls := range c.acq[callee] {
					if !c.acq[fn][cls] {
						c.acq[fn][cls] = true
						changed = true
					}
				}
			}
		}
	}
}

// calleeOf resolves a call to a function declared in this package.
func (c *checker) calleeOf(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	if _, ok := c.funcs[fn]; !ok {
		return nil
	}
	return fn
}

// held tracks the classes (and instances) a path currently holds.
type held map[class]map[string]bool

func (h held) clone() held {
	out := make(held, len(h))
	for cls, insts := range h {
		m := make(map[string]bool, len(insts))
		for i := range insts {
			m[i] = true
		}
		out[cls] = m
	}
	return out
}

// walkFunc runs the edge pass over one function.
func (c *checker) walkFunc(fn *types.Func, fd *ast.FuncDecl) {
	h := make(held)
	if lockutil.IsLockedName(fn.Name()) {
		// Only the receiver's classes: a *Locked helper frequently takes
		// the very object it is about to lock as a parameter.
		c.assume(h, fd.Recv)
	}
	c.flow.Block(fd.Body.List, h)
}

// assume marks every mutex field class of the receiver's / parameters'
// struct types as held — the *Locked entry contract.
func (c *checker) assume(h held, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		named := lockutil.OwnerNamed(c.pass.TypesInfo.TypeOf(field.Type))
		if named == nil {
			continue
		}
		for _, mu := range lockutil.MutexFields(named) {
			cls := class{owner: named.Obj(), name: mu}
			if h[cls] == nil {
				h[cls] = make(map[string]bool)
			}
			h[cls]["entry"] = true
		}
	}
}

// intersect joins two paths: a class stays held only if both hold it.
func intersect(a, b held) held {
	out := make(held)
	for cls, ia := range a {
		ib, ok := b[cls]
		if !ok {
			continue
		}
		m := make(map[string]bool)
		for i := range ia {
			if ib[i] {
				m[i] = true
			}
		}
		if len(m) == 0 {
			// Held on both paths but through different instances: keep the
			// class held under a merged identity.
			m["merged"] = true
		}
		out[cls] = m
	}
	return out
}

func (c *checker) walkExpr(e ast.Expr, h held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.flow.Block(n.Body.List, make(held))
			return false
		case *ast.CallExpr:
			c.walkCall(n, h)
			return false
		}
		return true
	})
}

// goCall walks a go statement's call: its operands are evaluated on this
// path, but the call runs concurrently, so it orders no acquisition
// after the locks held here. A literal's body is analyzed fresh by
// walkExpr.
func (c *checker) goCall(call *ast.CallExpr, h held) {
	for _, a := range call.Args {
		c.walkExpr(a, h)
	}
	c.walkExpr(call.Fun, h)
}

func (c *checker) walkCall(call *ast.CallExpr, h held) {
	// Operands first (they evaluate before the call).
	c.walkExpr(call.Fun, h)
	for _, a := range call.Args {
		c.walkExpr(a, h)
	}
	if op, mutexExpr := lockutil.ClassifyLockCall(c.pass.TypesInfo, call); op != lockutil.OpNone {
		c.lockOp(op, mutexExpr, call.Pos(), h)
		return
	}
	callee := c.calleeOf(call)
	if callee == nil {
		return
	}
	for cls := range c.acq[callee] {
		c.acquireClass(cls, "call:"+callee.Name(), call.Pos(), h, false)
	}
}

// lockOp applies a direct lock call to the held set.
func (c *checker) lockOp(op lockutil.Acquire, mutexExpr ast.Expr, pos token.Pos, h held) {
	cls, ok := c.classOf(mutexExpr)
	if !ok {
		return
	}
	inst := c.instanceOf(mutexExpr, pos)
	switch op {
	case lockutil.OpLock, lockutil.OpRLock:
		if h[cls] != nil && h[cls][inst] {
			c.reportf(pos, "re-acquiring %s, which this path already holds: certain self-deadlock", cls)
			return
		}
		c.acquireClass(cls, inst, pos, h, true)
	case lockutil.OpUnlock, lockutil.OpRUnlock:
		if insts := h[cls]; insts != nil {
			if insts[inst] {
				delete(insts, inst)
			} else if len(insts) == 1 {
				for i := range insts {
					delete(insts, i)
				}
			}
			if len(insts) == 0 {
				delete(h, cls)
			}
		}
	}
}

// acquireClass records hold->acquire edges for one acquisition and, when
// track is set, marks the class held.
func (c *checker) acquireClass(cls class, inst string, pos token.Pos, h held, track bool) {
	for heldCls := range h {
		e := edge{from: heldCls, to: cls}
		if at, ok := c.edges[e]; !ok || pos < at {
			c.edges[e] = pos
		}
	}
	if track {
		if h[cls] == nil {
			h[cls] = make(map[string]bool)
		}
		h[cls][inst] = true
	}
}

// parsePragmas reads //parabit:lockorder chains from every file.
func (c *checker) parsePragmas() {
	for e := range c.edges {
		c.classLabels[e.from.String()] = e.from
		c.classLabels[e.to.String()] = e.to
	}
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text, ok := strings.CutPrefix(cm.Text, "//parabit:lockorder")
				if !ok {
					continue
				}
				parts := strings.Split(text, "<")
				if len(parts) < 2 {
					c.reportf(cm.Pos(), "malformed lockorder pragma %q: want \"A < B [< C ...]\"", strings.TrimSpace(text))
					continue
				}
				chain := make([]class, 0, len(parts))
				bad := false
				for _, p := range parts {
					label := strings.TrimSpace(p)
					cls, ok := c.lookupLabel(label)
					if !ok {
						c.reportf(cm.Pos(), "lockorder pragma names unknown lock class %q", label)
						bad = true
						break
					}
					chain = append(chain, cls)
				}
				if bad {
					continue
				}
				for i := 0; i < len(chain); i++ {
					for j := i + 1; j < len(chain); j++ {
						if c.order[chain[i]] == nil {
							c.order[chain[i]] = make(map[class]bool)
						}
						c.order[chain[i]][chain[j]] = true
					}
				}
			}
		}
	}
	// Transitive closure of the declared relation.
	for changed := true; changed; {
		changed = false
		for a, succ := range c.order {
			for b := range succ {
				for d := range c.order[b] {
					if !c.order[a][d] {
						if c.order[a] == nil {
							c.order[a] = make(map[class]bool)
						}
						c.order[a][d] = true
						changed = true
					}
				}
			}
		}
	}
}

// lookupLabel resolves a pragma label ("Type.field" or a package-level
// variable name) against the package's declared types, not just the
// observed edges, so pragmas may name classes no current code path
// orders yet.
func (c *checker) lookupLabel(label string) (class, bool) {
	if cls, ok := c.classLabels[label]; ok {
		return cls, true
	}
	if i := strings.IndexByte(label, '.'); i >= 0 {
		obj := c.pass.Pkg.Scope().Lookup(label[:i])
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return class{}, false
		}
		named := lockutil.OwnerNamed(tn.Type())
		if named == nil {
			return class{}, false
		}
		for _, mu := range lockutil.MutexFields(named) {
			if mu == label[i+1:] {
				return class{owner: named.Obj(), name: mu}, true
			}
		}
		return class{}, false
	}
	if v, ok := c.pass.Pkg.Scope().Lookup(label).(*types.Var); ok && lockutil.IsMutexType(v.Type()) {
		return class{name: v.Name()}, true
	}
	return class{}, false
}

// report emits pragma violations and cycle edges.
func (c *checker) report() {
	type finding struct {
		pos token.Pos
		msg string
	}
	var out []finding
	for e, pos := range c.edges {
		if c.order[e.to][e.from] {
			out = append(out, finding{pos, fmt.Sprintf(
				"acquiring %s while holding %s inverts the declared lock order (%s < %s)",
				e.to, e.from, e.to, e.from)})
			continue
		}
		if e.from == e.to {
			out = append(out, finding{pos, fmt.Sprintf(
				"acquiring %s while another %s is already held; two instances of one class "+
					"taken without a fixed order can deadlock", e.to, e.to)})
			continue
		}
		if path := c.pathBetween(e.to, e.from); path != nil {
			cycle := make([]string, 0, len(path)+1)
			cycle = append(cycle, e.from.String())
			for _, cls := range path {
				cycle = append(cycle, cls.String())
			}
			out = append(out, finding{pos, fmt.Sprintf(
				"acquiring %s while holding %s closes a lock-order cycle: %s",
				e.to, e.from, strings.Join(cycle, " -> "))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].msg < out[j].msg
	})
	for _, f := range out {
		c.reportf(f.pos, "%s", f.msg)
	}
}

// pathBetween returns the classes along an observed-edge path from a to
// b (inclusive of both), or nil when none exists.
func (c *checker) pathBetween(a, b class) []class {
	prev := map[class]class{}
	queue := []class{a}
	seen := map[class]bool{a: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			var path []class
			for at := b; ; at = prev[at] {
				path = append([]class{at}, path...)
				if at == a {
					return path
				}
			}
		}
		// Deterministic expansion order.
		var next []class
		for e := range c.edges {
			if e.from == cur && !seen[e.to] {
				next = append(next, e.to)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].String() < next[j].String() })
		for _, n := range next {
			seen[n] = true
			prev[n] = cur
			queue = append(queue, n)
		}
	}
	return nil
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.pass.IsTestFile(pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}
