// Package guardedby checks `// guarded by <mutex>` field annotations.
//
// A struct field annotated with a comment of the form
//
//	columns map[string][]uint64 // guarded by mu
//
// may only be read while the named sibling mutex is held (Lock or
// RLock) and only be written while it is write-held (Lock). The guard
// may also live on another type of the same package —
//
//	size int // guarded by Cluster.mu
//
// — for directory-entry structs whose instances are owned by a parent's
// lock. The analyzer tracks Lock/RLock/Unlock/RUnlock and deferred
// unlocks through each function body, branch by branch (lockutil.Flow).
// A go statement's function value and arguments are checked under the
// spawning goroutine's locks, a goroutine literal's body with none. It
// reports:
//
//   - reads or writes of an annotated field with no guard held — in
//     particular the access-after-Unlock shape (snapshotting a field
//     after the critical section that loaded it already closed);
//   - writes while the guard is only read-locked (RLock);
//   - calls to *Locked-suffix helpers (the convention for functions
//     that require their receiver's lock already held) without the lock.
//
// Functions whose name ends in Locked are assumed to run with the guard
// mutexes of their receiver (and of any annotated-struct parameters)
// write-held; that is the contract their name declares, and their call
// sites are checked against it. Test files are exempt. Suppress a
// deliberate unguarded access with `//lint:ignore guardedby reason`.
package guardedby

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"parabit/internal/analysis"
	"parabit/internal/analysis/lockutil"
)

// Analyzer is the guardedby analysis.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "check `// guarded by mu` field annotations: annotated fields are only " +
		"accessed with the named mutex held, writes need the write lock, and " +
		"*Locked helpers are only called with the lock held",
	Run: run,
}

var guardRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

// guard is one field's resolved annotation.
type guard struct {
	// owner is the struct type carrying the mutex; for the sibling form
	// it is the annotated field's own struct.
	owner *types.Named
	// mutex is the guarding mutex field's name on owner.
	mutex string
	// sibling records whether the annotation named a bare sibling field
	// (instance-tracked) rather than a Type.field pair (type-tracked).
	sibling bool
}

func (g guard) String() string { return g.owner.Obj().Name() + "." + g.mutex }

// lockLevel orders lock modes: unheld < read-held < write-held.
type lockLevel int

const (
	unheld lockLevel = iota
	readHeld
	writeHeld
)

// stateKey identifies one tracked mutex instance: the canonical base
// expression it hangs off plus the mutex field name.
type stateKey struct {
	base  lockutil.CanonKey
	mutex string
}

// lockState is the tracked condition of one mutex instance.
type lockState struct {
	level lockLevel
	// owner is the named struct type the mutex field belongs to (nil for
	// bare mutex variables); it powers the type-based fallback lookup.
	owner *types.Named
	// released is where the mutex last dropped to unheld, for the
	// post-Unlock diagnostic.
	released token.Pos
}

// state maps tracked mutexes to their condition. Keys absent mean unheld
// with no release history.
type state map[stateKey]*lockState

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// merge joins two states after a branch: a mutex is only held at the
// join if both paths held it, at the weaker of the two levels.
func merge(a, b state) state {
	out := make(state, len(a))
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			vb = &lockState{level: unheld, owner: va.owner}
		}
		c := *va
		if vb.level < c.level {
			c.level = vb.level
			c.released = vb.released
		}
		if !c.released.IsValid() {
			c.released = vb.released
		}
		out[k] = &c
	}
	for k, vb := range b {
		if _, ok := a[k]; ok {
			continue
		}
		c := *vb
		c.level = unheld
		out[k] = &c
	}
	return out
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	c.flow = lockutil.Flow[state]{
		Info:  pass.TypesInfo,
		Clone: state.clone,
		Join:  merge,
		Expr:  c.expr,
		Write: c.writeTarget,
		Go:    c.goCall,
	}
	c.collect()
	if len(c.guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// guards maps annotated field objects to their resolved guard.
	guards map[*types.Var]guard
	// guardSet maps a struct type to the guard mutexes its annotations
	// reference — mutex field name to the owning struct type — the locks
	// a *Locked helper of that type is assumed (and required) to hold.
	// A type with qualified annotations (entry structs whose guard is a
	// parent type's lock) maps to the parent, so its helpers inherit the
	// parent-lock contract.
	guardSet map[*types.Named]map[string]*types.Named
	flow     lockutil.Flow[state]
}

// collect parses every struct declaration's field annotations.
func (c *checker) collect() {
	c.guards = make(map[*types.Var]guard)
	c.guardSet = make(map[*types.Named]map[string]*types.Named)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := c.pass.TypesInfo.Defs[ts.Name]
			if !ok || obj == nil {
				return true
			}
			named := lockutil.OwnerNamed(obj.Type())
			if named == nil {
				return true
			}
			for _, field := range st.Fields.List {
				spec := annotationOf(field)
				if spec == "" {
					continue
				}
				g, err := c.resolve(named, spec)
				if err != nil {
					c.pass.Reportf(field.Pos(), "bad guarded-by annotation %q: %v", spec, err)
					continue
				}
				for _, name := range field.Names {
					if fv, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.guards[fv] = g
					}
				}
			}
			return true
		})
	}
}

// annotationOf extracts the guard spec from a field's doc or trailing
// line comment.
func annotationOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// resolve binds an annotation spec ("mu" or "Type.mu") to its owner type
// and mutex field, validating both exist.
func (c *checker) resolve(host *types.Named, spec string) (guard, error) {
	owner, mutex, sibling := host, spec, true
	if i := indexDot(spec); i >= 0 {
		tn, obj := spec[:i], c.pass.Pkg.Scope().Lookup(spec[:i])
		if obj == nil {
			return guard{}, fmt.Errorf("no type %s in package %s", tn, c.pass.Pkg.Name())
		}
		owner = lockutil.OwnerNamed(obj.Type())
		if owner == nil {
			return guard{}, fmt.Errorf("%s is not a struct type", tn)
		}
		mutex, sibling = spec[i+1:], false
	}
	if !hasMutexField(owner, mutex) {
		return guard{}, fmt.Errorf("%s has no sync.Mutex/RWMutex field %q", owner.Obj().Name(), mutex)
	}
	for _, n := range []*types.Named{host, owner} {
		set := c.guardSet[n]
		if set == nil {
			set = make(map[string]*types.Named)
			c.guardSet[n] = set
		}
		set[mutex] = owner
	}
	return guard{owner: owner, mutex: mutex, sibling: sibling}, nil
}

func indexDot(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

func hasMutexField(named *types.Named, name string) bool {
	for _, f := range lockutil.MutexFields(named) {
		if f == name {
			return true
		}
	}
	return false
}

// checkFunc analyzes one function declaration.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	st := make(state)
	if lockutil.IsLockedName(fd.Name.Name) {
		c.assumeHeld(st, fd.Recv)
		c.assumeHeld(st, fd.Type.Params)
	}
	c.flow.Block(fd.Body.List, st)
}

// assumeHeld marks the guard mutexes of every named-struct field entry
// (receiver or parameter) as write-held — the *Locked contract.
func (c *checker) assumeHeld(st state, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := c.pass.TypesInfo.TypeOf(field.Type)
		named := lockutil.OwnerNamed(t)
		if named == nil {
			continue
		}
		set := c.guardSet[named]
		if len(set) == 0 {
			continue
		}
		for _, name := range field.Names {
			obj := c.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			for mu, owner := range set {
				key := stateKey{base: lockutil.CanonKey{Root: obj}, mutex: mu}
				st[key] = &lockState{level: writeHeld, owner: owner}
			}
		}
	}
}

// goCall walks a go statement's call. The function value and the
// arguments are evaluated here, under the current locks; a literal's body
// runs later with no lock held, and a *Locked callee can never have its
// lock.
func (c *checker) goCall(call *ast.CallExpr, st state) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.flow.Block(lit.Body.List, make(state))
	} else {
		c.expr(call.Fun, st)
	}
	for _, a := range call.Args {
		c.expr(a, st)
	}
	c.checkLockedCallee(call, st, true)
}

// expr walks an expression in read context.
func (c *checker) expr(e ast.Expr, st state) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		c.call(e, st)
	case *ast.SelectorExpr:
		c.expr(e.X, st)
		c.access(e, st, false)
	case *ast.FuncLit:
		// A closure may run later, but in this codebase literals are
		// overwhelmingly executed in place (sort callbacks, Exclusive
		// bodies); analyze with the lock context of the definition point.
		c.flow.Block(e.Body.List, st.clone())
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking a guarded field's address lets it escape the critical
			// section; require the write lock at the escape point.
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				c.expr(sel.X, st)
				c.access(sel, st, true)
				return
			}
		}
		c.expr(e.X, st)
	case *ast.BinaryExpr:
		c.expr(e.X, st)
		c.expr(e.Y, st)
	case *ast.ParenExpr:
		c.expr(e.X, st)
	case *ast.StarExpr:
		c.expr(e.X, st)
	case *ast.IndexExpr:
		c.expr(e.X, st)
		c.expr(e.Index, st)
	case *ast.IndexListExpr:
		c.expr(e.X, st)
		for _, i := range e.Indices {
			c.expr(i, st)
		}
	case *ast.SliceExpr:
		c.expr(e.X, st)
		c.expr(e.Low, st)
		c.expr(e.High, st)
		c.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		c.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.expr(kv.Value, st)
				continue
			}
			c.expr(el, st)
		}
	case *ast.KeyValueExpr:
		c.expr(e.Value, st)
	}
}

// writeTarget records a write access through an assignment target.
func (c *checker) writeTarget(e ast.Expr, st state) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		c.expr(e.X, st)
		c.access(e, st, true)
	case *ast.IndexExpr:
		// m[k] = v mutates the container the selector names.
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			c.expr(sel.X, st)
			c.access(sel, st, true)
		} else {
			c.expr(e.X, st)
		}
		c.expr(e.Index, st)
	case *ast.StarExpr:
		c.expr(e.X, st)
	case *ast.Ident:
		// Local rebind; nothing guarded.
	default:
		c.expr(e, st)
	}
}

// call classifies one call: a lock operation mutates st; a *Locked
// callee has its lock contract checked; everything else just walks
// operands.
func (c *checker) call(call *ast.CallExpr, st state) {
	if op, mutexExpr := lockutil.ClassifyLockCall(c.pass.TypesInfo, call); op != lockutil.OpNone {
		c.lockOp(op, mutexExpr, call.Pos(), st)
		return
	}
	// delete(m, k) mutates its map argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			c.writeTarget(call.Args[0], st)
			c.expr(call.Args[1], st)
			return
		}
	}
	c.expr(call.Fun, st)
	for _, a := range call.Args {
		c.expr(a, st)
	}
	c.checkLockedCallee(call, st, false)
}

// lockOp applies one Lock/RLock/Unlock/RUnlock to the state.
func (c *checker) lockOp(op lockutil.Acquire, mutexExpr ast.Expr, pos token.Pos, st state) {
	base, name, ok := lockutil.MutexField(mutexExpr)
	if !ok {
		return
	}
	var key stateKey
	var owner *types.Named
	if base == nil {
		// Bare mutex variable.
		canon, ok := lockutil.Canon(c.pass.TypesInfo, mutexExpr)
		if !ok {
			return
		}
		key = stateKey{base: canon, mutex: ""}
	} else {
		c.expr(base, st)
		owner = lockutil.OwnerNamed(c.pass.TypesInfo.TypeOf(base))
		canon, ok := lockutil.Canon(c.pass.TypesInfo, base)
		if !ok {
			// Untrackable instance (indexed, call result): fall back to a
			// synthetic per-position key so the type-based lookup still
			// sees the hold.
			canon = lockutil.CanonKey{Path: fmt.Sprintf("pos%d", pos)}
		}
		key = stateKey{base: canon, mutex: name}
	}
	ls := st[key]
	if ls == nil {
		ls = &lockState{owner: owner}
		st[key] = ls
	}
	switch op {
	case lockutil.OpLock:
		ls.level = writeHeld
	case lockutil.OpRLock:
		ls.level = readHeld
	case lockutil.OpUnlock, lockutil.OpRUnlock:
		ls.level = unheld
		ls.released = pos
	}
}

// checkLockedCallee enforces the *Locked call-site contract. fresh marks
// a go statement's call, whose contract the spawning goroutine's locks
// can never satisfy.
func (c *checker) checkLockedCallee(call *ast.CallExpr, st state, fresh bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() != c.pass.Pkg || !lockutil.IsLockedName(fn.Name()) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	named := lockutil.OwnerNamed(sig.Recv().Type())
	if named == nil {
		return
	}
	set := c.guardSet[named]
	if len(set) == 0 {
		return
	}
	for mu, owner := range set {
		if fresh {
			c.reportAccess(call.Pos(), fmt.Sprintf("go statement calls %s", fn.Name()),
				guard{owner: owner, mutex: mu}, unheld, token.NoPos)
			continue
		}
		level, released := c.lookup(st, sel.X, owner, mu)
		if level == unheld {
			c.reportAccess(call.Pos(), fmt.Sprintf("call to %s", fn.Name()),
				guard{owner: owner, mutex: mu}, level, released)
		}
	}
}

// access checks one annotated-field selector against the lock state.
func (c *checker) access(sel *ast.SelectorExpr, st state, write bool) {
	fv := c.fieldOf(sel)
	if fv == nil {
		return
	}
	g, ok := c.guards[fv]
	if !ok {
		return
	}
	var level lockLevel
	var released token.Pos
	if g.sibling {
		level, released = c.lookup(st, sel.X, g.owner, g.mutex)
	} else {
		level, released = c.lookupType(st, g.owner, g.mutex)
	}
	need := readHeld
	verb := "read of"
	if write {
		need, verb = writeHeld, "write to"
	}
	if level >= need {
		return
	}
	c.reportAccess(sel.Sel.Pos(), fmt.Sprintf("%s %s", verb, sel.Sel.Name), g, level, released)
}

func (c *checker) reportAccess(pos token.Pos, what string, g guard, level lockLevel, released token.Pos) {
	if c.pass.IsTestFile(pos) {
		return
	}
	switch {
	case level == readHeld:
		c.pass.Reportf(pos, "%s guarded by %s while it is only read-locked (RLock); writes need %s.Lock",
			what, g, g.owner.Obj().Name())
	case released.IsValid():
		rel := c.pass.Fset.Position(released)
		c.pass.Reportf(pos, "%s guarded by %s after the guard was released at line %d; snapshot it inside the critical section",
			what, g, rel.Line)
	default:
		c.pass.Reportf(pos, "%s guarded by %s without holding %s", what, g, g)
	}
}

// fieldOf resolves the struct field a selector denotes, or nil.
func (c *checker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	if v, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// lookup resolves the effective lock level protecting base's guard
// mutex: the exact tracked instance when base canonicalizes, falling
// back to (and taking the stronger of) any held mutex of the same
// owner type — the aliasing escape for instances reached through maps
// or call results.
func (c *checker) lookup(st state, base ast.Expr, owner *types.Named, mutex string) (lockLevel, token.Pos) {
	var level lockLevel
	var released token.Pos
	if canon, ok := lockutil.Canon(c.pass.TypesInfo, base); ok {
		if ls := st[stateKey{base: canon, mutex: mutex}]; ls != nil {
			level = ls.level
			released = ls.released
		}
	}
	tl, tr := c.lookupType(st, owner, mutex)
	if tl > level {
		level, released = tl, token.NoPos
	}
	if !released.IsValid() {
		released = tr
	}
	return level, released
}

// lookupType scans the state for any held mutex of the given owner type
// and field name.
func (c *checker) lookupType(st state, owner *types.Named, mutex string) (lockLevel, token.Pos) {
	var level lockLevel
	var released token.Pos
	for key, ls := range st {
		if key.mutex != mutex || ls.owner == nil || ls.owner.Obj() != owner.Obj() {
			continue
		}
		if ls.level > level {
			level = ls.level
		}
		if ls.released.IsValid() {
			released = ls.released
		}
	}
	return level, released
}
