package lockutil

import (
	"go/ast"
	"go/types"
)

// Flow walks a function body's statements, carrying one analyzer's lock
// state S along each path. The control flow is the same for every
// analyzer:
//
//   - statements run in order, and a return or branch statement ends the
//     path (a call to panic does not);
//   - each arm of an if runs from a clone of the state, and only the arms
//     that do not end their path join;
//   - a for or range body joins the state before the loop;
//   - switch, type switch and select join their surviving clauses, plus
//     the fall-past path when there is no default;
//   - a deferred Unlock/RUnlock keeps the lock held to the end of the
//     function; any other deferred call runs on a clone.
//
// The hooks are where analyzers differ. Expr, Write and Go apply lock
// calls to the state they are given in place.
type Flow[S any] struct {
	Info *types.Info
	// Clone copies a state for one branch.
	Clone func(S) S
	// Join merges the states of two paths that meet.
	Join func(a, b S) S
	// Expr walks an expression evaluated on the path; e may be nil.
	Expr func(e ast.Expr, st S)
	// Write walks the target of an assignment or of ++/--.
	Write func(e ast.Expr, st S)
	// Go walks the call of a go statement.
	Go func(call *ast.CallExpr, st S)
}

// Block runs a statement list from st. It returns the state at the end
// of the list, or where a statement ended the path, and whether one did.
func (f *Flow[S]) Block(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var term bool
		if st, term = f.stmt(s, st); term {
			return st, true
		}
	}
	return st, false
}

// stmt runs one statement from st; s may be nil.
func (f *Flow[S]) stmt(s ast.Stmt, st S) (S, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.Block(s.List, st)
	case *ast.LabeledStmt:
		return f.stmt(s.Stmt, st)
	case *ast.ExprStmt:
		f.Expr(s.X, st)
	case *ast.SendStmt:
		f.Expr(s.Chan, st)
		f.Expr(s.Value, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			f.Expr(e, st)
		}
		for _, e := range s.Lhs {
			f.Write(e, st)
		}
	case *ast.IncDecStmt:
		f.Write(s.X, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						f.Expr(v, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if op, _ := ClassifyLockCall(f.Info, s.Call); op != OpUnlock && op != OpRUnlock {
			f.Expr(s.Call, f.Clone(st))
		}
	case *ast.GoStmt:
		f.Go(s.Call, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			f.Expr(e, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.IfStmt:
		st, _ = f.stmt(s.Init, st)
		f.Expr(s.Cond, st)
		then, thenTerm := f.Block(s.Body.List, f.Clone(st))
		if s.Else == nil {
			if thenTerm {
				return st, false
			}
			return f.Join(st, then), false
		}
		els, elseTerm := f.stmt(s.Else, f.Clone(st))
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return els, false
		case elseTerm:
			return then, false
		}
		return f.Join(then, els), false
	case *ast.ForStmt:
		st, _ = f.stmt(s.Init, st)
		f.Expr(s.Cond, st)
		body, _ := f.Block(s.Body.List, f.Clone(st))
		body, _ = f.stmt(s.Post, body)
		return f.Join(st, body), false
	case *ast.RangeStmt:
		f.Expr(s.X, st)
		body, _ := f.Block(s.Body.List, f.Clone(st))
		return f.Join(st, body), false
	case *ast.SwitchStmt:
		st, _ = f.stmt(s.Init, st)
		f.Expr(s.Tag, st)
		return f.clauses(s.Body.List, st), false
	case *ast.TypeSwitchStmt:
		st, _ = f.stmt(s.Init, st)
		st, _ = f.stmt(s.Assign, st)
		return f.clauses(s.Body.List, st), false
	case *ast.SelectStmt:
		return f.clauses(s.Body.List, st), false
	}
	return st, false
}

// clauses runs each case or comm clause from st and joins the clauses
// that do not end their path, plus st itself when no default clause
// makes one of them run. With no survivor the state stays st.
func (f *Flow[S]) clauses(list []ast.Stmt, st S) S {
	var survivors []S
	hasDefault := false
	for _, cl := range list {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				f.Expr(e, st)
			}
			hasDefault = hasDefault || cl.List == nil
			body = cl.Body
		case *ast.CommClause:
			hasDefault = hasDefault || cl.Comm == nil
			st, _ = f.stmt(cl.Comm, st)
			body = cl.Body
		}
		if out, term := f.Block(body, f.Clone(st)); !term {
			survivors = append(survivors, out)
		}
	}
	if !hasDefault {
		survivors = append(survivors, st)
	}
	if len(survivors) == 0 {
		return st
	}
	joined := survivors[0]
	for _, s := range survivors[1:] {
		joined = f.Join(joined, s)
	}
	return joined
}
