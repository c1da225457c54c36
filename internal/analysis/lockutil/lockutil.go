// Package lockutil holds what the concurrency analyzers (guardedby,
// lockorder) share: recognizing sync.Mutex and sync.RWMutex fields,
// classifying Lock/RLock/Unlock/RUnlock call sites, canonicalizing the
// base expression a lock hangs off, the *Locked helper-suffix convention
// for functions that require a lock already held, and Flow, the walk of
// a function body's control flow that carries each analyzer's lock
// state from statement to statement.
package lockutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// Acquire classifies one lock-method call.
type Acquire int

// Lock-method classes.
const (
	// OpNone marks a call that is not a lock operation.
	OpNone Acquire = iota
	// OpLock is a write acquisition (Lock).
	OpLock
	// OpRLock is a read acquisition (RLock).
	OpRLock
	// OpUnlock releases a write acquisition (Unlock).
	OpUnlock
	// OpRUnlock releases a read acquisition (RUnlock).
	OpRUnlock
)

// IsMutexType reports whether t (after stripping one pointer) is
// sync.Mutex or sync.RWMutex.
func IsMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// ClassifyLockCall inspects a call expression. When it is a
// Lock/RLock/Unlock/RUnlock call on a sync mutex reached through a
// selector (x.mu.Lock()), it returns the operation and the mutex
// selector expression (x.mu); otherwise OpNone.
func ClassifyLockCall(info *types.Info, call *ast.CallExpr) (Acquire, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return OpNone, nil
	}
	var op Acquire
	switch sel.Sel.Name {
	case "Lock":
		op = OpLock
	case "RLock":
		op = OpRLock
	case "Unlock":
		op = OpUnlock
	case "RUnlock":
		op = OpRUnlock
	default:
		return OpNone, nil
	}
	recv := ast.Unparen(sel.X)
	if t := info.TypeOf(recv); t == nil || !IsMutexType(t) {
		return OpNone, nil
	}
	return op, recv
}

// MutexField splits a mutex expression of the form base.mu into its base
// expression and the mutex field name. A bare identifier (a local or
// package-level mutex variable) returns a nil base and the variable
// name.
func MutexField(e ast.Expr) (base ast.Expr, name string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.X, e.Sel.Name, true
	case *ast.Ident:
		return nil, e.Name, true
	}
	return nil, "", false
}

// CanonKey is a stable identity for a base expression: the root
// identifier's object plus the selector path walked from it. Two
// syntactically different mentions of the same variable chain compare
// equal; expressions routed through calls, indexing or dereferences do
// not canonicalize.
type CanonKey struct {
	Root types.Object
	Path string
}

// Canon canonicalizes an identifier/selector chain. ok is false for
// expressions whose identity cannot be tracked syntactically (index
// expressions, call results, dereferences through computed pointers).
func Canon(info *types.Info, e ast.Expr) (CanonKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return CanonKey{}, false
		}
		return CanonKey{Root: obj}, true
	case *ast.SelectorExpr:
		base, ok := Canon(info, e.X)
		if !ok {
			return CanonKey{}, false
		}
		base.Path += "." + e.Sel.Name
		return base, true
	case *ast.StarExpr:
		return Canon(info, e.X)
	}
	return CanonKey{}, false
}

// OwnerNamed resolves the named struct type an expression's value
// belongs to, stripping one level of pointer. It returns nil when the
// type is not a named struct.
func OwnerNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// IsLockedName reports whether a function follows the *Locked suffix
// convention: it must be called with its receiver's guard mutexes held.
func IsLockedName(name string) bool {
	return len(name) > len("Locked") && strings.HasSuffix(name, "Locked")
}

// MutexFields returns the names of the sync.Mutex / sync.RWMutex fields
// declared directly on a named struct type, in declaration order.
func MutexFields(named *types.Named) []string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if IsMutexType(f.Type()) {
			out = append(out, f.Name())
		}
	}
	return out
}
