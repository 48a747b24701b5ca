package analysis

import (
	"go/ast"
	"go/types"
)

// Tracelint keeps the string-keyed trace.Collector slow path off the
// simulator's hot path. The collector has two write APIs: the interned
// dense-ID fast path (Intern/SentID/DeliveredID/DroppedID, InternHist/
// ObserveHistID) the single-threaded simulator uses, and the string-keyed
// slow path that exists for the concurrent live runtime — MessageSent/
// MessageDelivered/MessageDropped hash the type name and add atomically
// (about 8× an interned increment); ObserveLatency/ObserveValue, Emit and
// Logf also lock the collector. Any function reachable from a
// //repro:hotpath root through static calls in its package must use the
// former.
var Tracelint = &Analyzer{
	Name: "tracelint",
	Doc:  "string-keyed trace.Collector calls reachable from //repro:hotpath functions",
	Run:  runTracelint,
}

// slowCollectorMethods is the string-keyed API: each call hashes a string
// key (or formats, for Logf) per event, and all but the three message
// counters lock the collector.
var slowCollectorMethods = map[string]string{
	"MessageSent":      "Intern + SentID",
	"MessageDelivered": "Intern + DeliveredID",
	"MessageDropped":   "Intern + DroppedID",
	"ObserveLatency":   "InternHist + ObserveHistID",
	"ObserveValue":     "InternHist + ObserveHistID",
	"Emit":             "an interned counter or a post-run read",
	"Logf":             "nothing (hot paths do not log)",
}

// collectorPkg is the package defining the Collector the rule is about.
// Fixture packages under testdata provide their own Collector type; the
// suffix match lets them exercise the analyzer without importing the real
// trace package's whole dependency tree.
func isCollector(t types.Type) bool {
	return namedType(t, "repro/internal/trace", "Collector") ||
		namedTypeSuffix(t, "/tracestub", "Collector")
}

// namedTypeSuffix matches a named type by package-path suffix (testdata
// support; see isCollector).
func namedTypeSuffix(t types.Type, pathSuffix, name string) bool {
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
	return obj != nil && obj.Pkg() != nil && name == obj.Name() && hasSuffix(obj.Pkg().Path(), pathSuffix)
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

func runTracelint(p *Pass) {
	roots := p.Pkg.HotFuncs()
	if len(roots) == 0 {
		return
	}
	// Map every package function object to its declaration, for static
	// call-graph edges.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
				if obj := p.Pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	// BFS from the hot roots over static intra-package calls, remembering
	// which root reaches each function for the diagnostic.
	rootOf := make(map[*ast.FuncDecl]string)
	var queue []*ast.FuncDecl
	for _, fd := range roots {
		if _, seen := rootOf[fd]; !seen {
			rootOf[fd] = funcDisplayName(fd)
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd.Body == nil {
			continue
		}
		root := rootOf[fd]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkTraceCall(p, call, fd, root)
			fn := calleeFunc(p, call)
			if fn == nil {
				return true
			}
			if callee, ok := decls[fn]; ok {
				if _, seen := rootOf[callee]; !seen {
					rootOf[callee] = root
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
}

// checkTraceCall flags one slow-path collector call in a hot-reachable
// function.
func checkTraceCall(p *Pass, call *ast.CallExpr, fd *ast.FuncDecl, root string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	alt, slow := slowCollectorMethods[sel.Sel.Name]
	if !slow {
		return
	}
	if !isCollector(p.TypeOf(sel.X)) {
		return
	}
	where := funcDisplayName(fd)
	via := ""
	if where != root {
		via = " (reachable from //repro:hotpath " + root + ")"
	}
	p.Reportf(call.Pos(), "%s.%s is the string-keyed slow path, called from %s%s; use %s",
		exprString(sel.X), sel.Sel.Name, where, via, alt)
}
