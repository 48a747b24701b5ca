package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotlint checks functions annotated //repro:hotpath — the simulator's
// per-event/per-message inner loop — for the allocation patterns that
// AllocsPerRun regression tests catch only after the fact and without a
// source location: closures that capture state, values boxed into
// interfaces, fmt calls, string concatenation, and map/slice allocation
// inside loops.
//
// fmt calls and concatenations whose result only feeds panic are exempt: a
// panic path runs zero times per event, and the engine's invariant panics
// are deliberate.
var Hotlint = &Analyzer{
	Name: "hotlint",
	Doc:  "closures, interface boxing, fmt, string concatenation, and per-iteration allocation in //repro:hotpath functions",
	Run:  runHotlint,
}

func runHotlint(p *Pass) {
	for _, fd := range p.Pkg.HotFuncs() {
		if fd.Body == nil {
			continue
		}
		checkHotFunc(p, fd)
	}
}

// checkHotFunc walks one hot function, tracking loop depth and whether the
// current subtree only feeds a panic.
func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	var walk func(n ast.Node, loopDepth int, inPanic bool)
	walk = func(n ast.Node, loopDepth int, inPanic bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			walk(n.Init, loopDepth, inPanic)
			walk(n.Cond, loopDepth, inPanic)
			walk(n.Post, loopDepth+1, inPanic)
			walk(n.Body, loopDepth+1, inPanic)
			return
		case *ast.RangeStmt:
			walk(n.X, loopDepth, inPanic)
			walk(n.Body, loopDepth+1, inPanic)
			return
		case *ast.CallExpr:
			if isBuiltinCall(p, n, "panic") {
				for _, a := range n.Args {
					walk(a, loopDepth, true)
				}
				return
			}
			checkHotCall(p, n, loopDepth, inPanic)
		case *ast.FuncLit:
			if !inPanic {
				reportClosureCaptures(p, fd, n)
			}
			// The literal's body is not part of the hot function's own
			// execution; it runs whenever the closure is invoked. Its cost
			// is attributed to whoever calls it.
			return
		case *ast.BinaryExpr:
			if !inPanic && isStringConcat(p, n) {
				p.Reportf(n.Pos(), "string concatenation on a //repro:hotpath function allocates per call; build the string once, off the hot path")
				// a + b + c is one allocation: report the chain once and
				// walk only its operands.
				var operands func(e ast.Expr)
				operands = func(e ast.Expr) {
					if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && isStringConcat(p, b) {
						operands(b.X)
						operands(b.Y)
						return
					}
					walk(e, loopDepth, inPanic)
				}
				operands(n.X)
				operands(n.Y)
				return
			}
		case *ast.CompositeLit:
			if loopDepth > 0 && !inPanic {
				if t := p.TypeOf(n); t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						p.Reportf(n.Pos(), "map literal allocated on every loop iteration of hot path %s; hoist it out of the loop", funcDisplayName(fd))
					case *types.Slice:
						p.Reportf(n.Pos(), "slice literal allocated on every loop iteration of hot path %s; hoist it out of the loop", funcDisplayName(fd))
					}
				}
			}
		}
		// Generic recursion over children.
		ast.Inspect(n, func(sub ast.Node) bool {
			if sub == nil || sub == n {
				return sub == n
			}
			walk(sub, loopDepth, inPanic)
			return false
		})
	}
	walk(fd.Body, 0, false)
}

// isStringConcat reports whether e is a + of strings evaluated at run time
// (a constant expression costs nothing).
func isStringConcat(p *Pass, e *ast.BinaryExpr) bool {
	if e.Op != token.ADD {
		return false
	}
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkHotCall flags fmt calls, make(map/slice) in loops, and arguments
// boxed into interface parameters.
func checkHotCall(p *Pass, call *ast.CallExpr, loopDepth int, inPanic bool) {
	if inPanic {
		return
	}
	if fn := calleeFunc(p, call); fn != nil && funcPkgPath(fn) == "fmt" {
		p.Reportf(call.Pos(), "fmt.%s on a //repro:hotpath function allocates and reflects; format off the hot path (or gate it behind a disabled-by-default debug flag)", fn.Name())
		return
	}
	if loopDepth > 0 && isBuiltinCall(p, call, "make") && len(call.Args) > 0 {
		if t := p.TypeOf(call.Args[0]); t != nil {
			switch t.Underlying().(type) {
			case *types.Map, *types.Slice, *types.Chan:
				p.Reportf(call.Pos(), "make inside a hot-path loop allocates per iteration; hoist or pool it")
			}
		}
	}
	checkBoxing(p, call)
}

// checkBoxing flags call arguments whose concrete, non-pointer-shaped
// values are converted to interface parameters — each such conversion heap-
// allocates a copy on every call.
func checkBoxing(p *Pass, call *ast.CallExpr) {
	sig, ok := typeAsSignature(p.TypeOf(call.Fun))
	if !ok {
		return // builtin, conversion, or unresolved
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				paramType = params.At(params.Len() - 1).Type() // slice passed whole
			} else {
				paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if !isInterface(paramType) {
			continue
		}
		argType := p.TypeOf(arg)
		if argType == nil || isInterface(argType) || pointerShaped(argType) {
			continue
		}
		if b, ok := argType.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.Reportf(arg.Pos(), "argument %s boxes a %s into interface %s (allocates per call on a //repro:hotpath function)",
			exprString(arg), argType.String(), paramType.String())
	}
}

// typeAsSignature unwraps a callee type to its signature, if it has one.
func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// reportClosureCaptures flags a func literal in a hot function when it
// captures variables from the enclosing scope (a capturing closure
// allocates its context, and usually the func value too, per execution).
func reportClosureCaptures(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != "" {
			return captured == ""
		}
		obj := p.Pkg.Info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Captured = declared in the enclosing function but outside the
		// literal (parameters and receiver included).
		if declaredWithin(obj, fd) && !declaredWithin(obj, lit) {
			captured = v.Name()
		}
		return captured == ""
	})
	if captured != "" {
		p.Reportf(lit.Pos(), "closure captures %q in //repro:hotpath function %s; hot paths must be closure-free (pool the callback or use the delivery-sink pattern)",
			captured, funcDisplayName(fd))
	}
}
