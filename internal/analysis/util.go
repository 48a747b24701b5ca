package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method, possibly from another package). It
// returns nil for builtins, conversions, calls through func values, and
// anything the type-checker could not resolve.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.ObjectOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier (pkg.Func).
		if fn, ok := p.ObjectOf(fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcPkgPath returns the defining package path of a function, or "" for
// builtins and universe-scope objects.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isBuiltinCall reports whether the call invokes the named builtin
// (append, make, panic, ...).
func isBuiltinCall(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.ObjectOf(id).(*types.Builtin)
	return ok
}

// namedType reports whether t (after unwrapping pointers and aliases) is
// the named type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isInterface reports whether the type's underlying form is an interface.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// pointerShaped reports whether storing a value of this type in an
// interface needs no allocation (the value is a single pointer word).
func pointerShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// declaredWithin reports whether the object's declaration lies inside the
// node's source range (e.g. a variable declared inside a loop body).
func declaredWithin(obj types.Object, n ast.Node) bool {
	if obj == nil || n == nil {
		return false
	}
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// exprString renders a short source-ish form of an expression for
// diagnostics (identifiers and selector chains; anything else is "<expr>").
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}

// funcDisplayName renders "Recv.Name" or "Name" for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return exprString(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return fd.Name.Name
}
