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
