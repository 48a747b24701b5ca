package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detlint enforces simulator determinism at the source level in the
// packages whose behavior the schedule goldens pin: no wall-clock reads, no
// global math/rand draws, and no order-sensitive iteration over maps.
//
// The map rule is the sharp one — it is exactly the class of bug PR 6 fixed
// in roundbased's estimate tie-break, which shipped in the seed and
// survived five PRs. A `range` over a map is flagged when its body does
// something whose outcome depends on iteration order: sending or emitting
// per key, appending to a slice that outlives the loop, writing protocol
// state, returning, or breaking. Order-insensitive bodies (counting into
// another map, commutative accumulation, deletes, appends the code sorts
// immediately afterwards) pass silently.
var Detlint = &Analyzer{
	Name:    "detlint",
	Applies: detSensitive,
	Run:     runDetlint,
}

// detSensitive lists the packages whose code must be a pure function of
// (seed, parameters): the simulator substrate, the protocol cores and their
// sim-side machinery, and the engines that aggregate their reports.
func detSensitive(path string) bool {
	switch trimFixture(path) {
	case "repro/internal/sim", "repro/internal/simnet", "repro/internal/trace",
		"repro/internal/harness", "repro/internal/scenario", "repro/internal/rsm",
		"repro/internal/adversary", "repro/internal/leader", "repro/internal/oracle",
		"repro/internal/clock", "repro/internal/experiments":
		return true
	}
	return strings.HasPrefix(trimFixture(path), "repro/internal/core/")
}

// trimFixture lets testdata packages masquerade as the path their fixture
// declares (the loader mounts them at "<real path>/<fixture name>").
func trimFixture(path string) string {
	if i := strings.Index(path, "/testdata/"); i >= 0 {
		return path[:i]
	}
	return path
}

// wallClockFuncs are the time package functions that read or wait on the
// host clock. time.Duration arithmetic and constants are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// globalRandExempt are the math/rand package-level constructors that build
// seeded sources — the only legitimate global entry points here.
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDetlint(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetCall(p, n)
			case *ast.RangeStmt:
				// Map ranges are checked from their enclosing block so the
				// sorted-afterwards heuristic can see the following
				// statements; blocks are visited below.
			case *ast.BlockStmt:
				for i, stmt := range n.List {
					if rs, ok := stmt.(*ast.RangeStmt); ok {
						checkMapRange(p, rs, n.List[i+1:])
					}
				}
			case *ast.CaseClause:
				for i, stmt := range n.Body {
					if rs, ok := stmt.(*ast.RangeStmt); ok {
						checkMapRange(p, rs, n.Body[i+1:])
					}
				}
			}
			return true
		})
	}
}

// checkDetCall flags wall-clock reads and global math/rand draws.
func checkDetCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. *rand.Rand.Intn, engine.Now) are fine
	}
	switch funcPkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] {
			p.Reportf(call.Pos(), "time.%s reads the wall clock; simulated code must use the engine's virtual clock (env.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExempt[fn.Name()] {
			p.Reportf(call.Pos(), "global rand.%s draws from the process-wide source; use the engine's seeded *rand.Rand (env.Rand)", fn.Name())
		}
	}
}

// mapRangeViolation is one order-sensitive operation found in a map-range
// body.
type mapRangeViolation struct {
	pos  token.Pos
	what string
}

// orderSensitiveCalls are method names whose invocation inside a map range
// makes the schedule, the trace, or a report depend on iteration order:
// messaging and timers, trace emission, and incremental report writers.
var orderSensitiveCalls = map[string]bool{
	// messaging / protocol actions
	"Send": true, "Broadcast": true, "Inject": true, "Decide": true,
	"SetTimer": true, "CancelTimer": true, "Schedule": true, "After": true,
	"ScheduleDelivery": true,
	// trace emission
	"Emit": true, "Logf": true, "Span": true, "ObserveLatency": true,
	"ObserveValue": true, "ObserveDelivery": true, "SentID": true,
	"DeliveredID": true, "DroppedID": true, "SentIDN": true,
	"DroppedIDN": true, "MessageSent": true, "Observe": true,
	// incremental report/stream writers
	"Fprintf": true, "Fprintln": true, "Fprint": true, "Printf": true,
	"Println": true, "Print": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Write": true,
}

// checkMapRange flags a range over a map whose body is order-sensitive.
// following holds the statements after the range in its enclosing block,
// for the sorted-immediately-after exemption.
func checkMapRange(p *Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	t := p.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	v := findMapRangeViolation(p, rs, following)
	if v == nil {
		return
	}
	p.Reportf(v.pos, "range over map %s: %s, so the result depends on map iteration order; sort the keys first, or annotate //repro:allow detlint <why safe>",
		exprString(rs.X), v.what)
}

// mapRangeEffects summarizes a map-range body for the order-sensitivity
// classification.
type mapRangeEffects struct {
	// constOnly holds outer variables whose every plain assignment in the
	// body stores the same compile-time constant (the `found = true` idiom).
	// Such assignments are idempotent, so neither they nor an early break
	// make the result order-sensitive.
	constOnly map[types.Object]bool
	// cumulative reports whether the body accumulates across iterations
	// (counters, compound assigns, indexed writes, appends, deletes). An
	// early break then leaves a partial accumulation whose contents depend
	// on which keys were visited first.
	cumulative bool
}

// analyzeMapRangeEffects pre-scans the body; see mapRangeEffects.
func analyzeMapRangeEffects(p *Pass, rs *ast.RangeStmt) mapRangeEffects {
	eff := mapRangeEffects{constOnly: make(map[types.Object]bool)}
	constVals := make(map[types.Object]string)
	poisoned := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			eff.cumulative = true
		case *ast.CallExpr:
			if isBuiltinCall(p, n, "delete") || isBuiltinCall(p, n, "append") {
				eff.cumulative = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			if n.Tok != token.ASSIGN {
				eff.cumulative = true
				return true
			}
			for i, lhs := range n.Lhs {
				lhs := ast.Unparen(lhs)
				if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
					eff.cumulative = true
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := p.ObjectOf(id)
				if obj == nil || declaredWithin(obj, rs) {
					continue
				}
				val := ""
				if len(n.Lhs) == len(n.Rhs) {
					if tv, ok := p.Pkg.Info.Types[n.Rhs[i]]; ok && tv.Value != nil {
						val = tv.Value.ExactString()
					}
				}
				if val == "" || (constVals[obj] != "" && constVals[obj] != val) {
					poisoned[obj] = true
					continue
				}
				constVals[obj] = val
			}
		}
		return true
	})
	for obj := range constVals {
		if !poisoned[obj] {
			eff.constOnly[obj] = true
		}
	}
	return eff
}

// findMapRangeViolation scans the loop body for the first order-sensitive
// operation. It recurses manually so that break-binding is tracked: a break
// inside a nested switch or loop does not abort the map iteration.
func findMapRangeViolation(p *Pass, rs *ast.RangeStmt, following []ast.Stmt) *mapRangeViolation {
	eff := analyzeMapRangeEffects(p, rs)
	var found *mapRangeViolation
	report := func(pos token.Pos, format string, args ...any) {
		if found == nil {
			found = &mapRangeViolation{pos: pos, what: fmt.Sprintf(format, args...)}
		}
	}

	var walk func(n ast.Node, breakBindsHere bool)
	walkStmts := func(list []ast.Stmt, breakBindsHere bool) {
		for _, s := range list {
			walk(s, breakBindsHere)
		}
	}
	walk = func(n ast.Node, breakBindsHere bool) {
		if n == nil || found != nil {
			return
		}
		switch n := n.(type) {
		case *ast.BranchStmt:
			// A break is harmless in a pure scan (idempotent effects only):
			// skipping the remaining keys cannot change the outcome. It is
			// order-sensitive the moment the body accumulates anything.
			if n.Tok == token.BREAK && n.Label == nil && breakBindsHere && eff.cumulative {
				report(n.Pos(), "breaks out of an accumulating iteration (the partial result depends on which keys ran)")
			}
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				report(n.Pos(), "returns a value chosen by the iteration")
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(p, rs, n, following, eff, report)
			for _, rhs := range n.Rhs {
				walk(rhs, false)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p, n); fn != nil && orderSensitiveCalls[fn.Name()] {
				report(n.Pos(), "calls %s per key", fn.Name())
			}
			for _, a := range n.Args {
				walk(a, false)
			}
			walk(n.Fun, false)
		case *ast.ForStmt:
			walk(n.Init, false)
			walk(n.Cond, false)
			walk(n.Post, false)
			walkStmts(n.Body.List, false)
		case *ast.RangeStmt:
			walk(n.X, false)
			walkStmts(n.Body.List, false)
		case *ast.SwitchStmt:
			walk(n.Init, false)
			walk(n.Tag, false)
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(cc.Body, false)
				}
			}
		case *ast.TypeSwitchStmt:
			walk(n.Init, false)
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(cc.Body, false)
				}
			}
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkStmts(cc.Body, false)
				}
			}
		case *ast.IfStmt:
			walk(n.Init, breakBindsHere)
			walk(n.Cond, false)
			walkStmts(n.Body.List, breakBindsHere)
			walk(n.Else, breakBindsHere)
		case *ast.BlockStmt:
			walkStmts(n.List, breakBindsHere)
		case *ast.ExprStmt:
			walk(n.X, false)
		case *ast.IncDecStmt:
			// Commutative; fine.
		case *ast.DeferStmt, *ast.GoStmt:
			report(n.Pos(), "launches deferred/concurrent work per key")
		case *ast.FuncLit:
			// A closure's body runs later; analyzing it here would
			// misattribute order-sensitivity. The closure itself being
			// created per key is fine.
		case ast.Expr:
			ast.Inspect(n, func(sub ast.Node) bool {
				if call, ok := sub.(*ast.CallExpr); ok && found == nil {
					if fn := calleeFunc(p, call); fn != nil && orderSensitiveCalls[fn.Name()] {
						report(call.Pos(), "calls %s per key", fn.Name())
					}
				}
				return found == nil
			})
		default:
			// Other statements (decl, labeled, send): inspect generically.
			ast.Inspect(n, func(sub ast.Node) bool {
				if sub == n {
					return true
				}
				walk(sub, false)
				return false
			})
		}
	}
	walkStmts(rs.Body.List, true)
	return found
}

// checkMapRangeAssign classifies one assignment inside a map-range body.
func checkMapRangeAssign(p *Pass, rs *ast.RangeStmt, as *ast.AssignStmt, following []ast.Stmt, eff mapRangeEffects, report func(token.Pos, string, ...any)) {
	switch as.Tok {
	case token.DEFINE:
		return // new variables scoped to the body
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return // commutative accumulation
	}
	for i, lhs := range as.Lhs {
		lhs := ast.Unparen(lhs)
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := p.ObjectOf(lhs)
			if obj == nil || declaredWithin(obj, rs) {
				continue
			}
			if eff.constOnly[obj] {
				continue // only ever set to one constant; idempotent
			}
			// x = append(x, ...) sorted right after the loop is the
			// canonical deterministic key-extraction idiom.
			if i < len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && isBuiltinCall(p, call, "append") {
					if sortedAfter(p, obj, following) {
						continue
					}
					report(as.Pos(), "appends to %q (declared outside the loop, not sorted afterwards)", lhs.Name)
					continue
				}
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				// Multi-assign from one call: treat like plain overwrite.
				report(as.Pos(), "assigns %q (declared outside the loop)", lhs.Name)
				continue
			}
			report(as.Pos(), "assigns %q (declared outside the loop)", lhs.Name)
		case *ast.IndexExpr:
			if t := p.TypeOf(lhs.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					continue // map writes are set-semantics, order-free
				}
			}
			if mentionsLoopVar(p, lhs.Index, rs) {
				continue // slice[key-derived index]: each key hits its own slot
			}
			report(as.Pos(), "writes %s at a loop-independent index", exprString(lhs))
		case *ast.SelectorExpr, *ast.StarExpr:
			report(as.Pos(), "writes %s (state outside the loop)", exprString(lhs.(ast.Expr)))
		}
	}
}

// mentionsLoopVar reports whether the expression uses the range statement's
// key or value variable.
func mentionsLoopVar(p *Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	loopObjs := make(map[types.Object]bool)
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && v != nil {
			if obj := p.ObjectOf(id); obj != nil {
				loopObjs[obj] = true
			}
		}
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if loopObjs[p.ObjectOf(id)] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether one of the next few statements after the
// range loop sorts the slice the loop appended to (sort.Strings(keys),
// sort.Slice(keys, ...), slices.Sort(keys), ...).
func sortedAfter(p *Pass, obj types.Object, following []ast.Stmt) bool {
	limit := 3
	if len(following) < limit {
		limit = len(following)
	}
	for _, stmt := range following[:limit] {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil {
				return true
			}
			pkg := funcPkgPath(fn)
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
