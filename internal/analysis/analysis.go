// Package analysis is a stdlib-only static-analysis framework for this
// repository's domain invariants. It loads and type-checks module packages
// with go/parser + go/types (no external dependencies; the standard library
// is imported from source), and runs a fixed suite of analyzers over the
// typed syntax:
//
//   - detlint:      no wall-clock, global math/rand, or order-sensitive map
//     iteration in determinism-sensitive packages
//   - hotlint:      no closures, interface boxing, fmt, or per-iteration
//     map/slice allocation in //repro:hotpath functions
//   - tracelint:    code reachable from hot paths uses the interned dense
//     counter API, never the string-keyed slow path
//   - keylint:      every key passed to a storage.Store Put starts with a
//     prefix declared in the internal/storage key registry
//
// Every claim the repo makes about the ε+3τ+5δ bound rests on the simulator
// being byte-exactly deterministic, and every BENCH_*.json number rests on
// the hot path staying allocation-free. Golden tests catch violations after
// the fact; these analyzers point at the line that introduced them.
//
// Two source directives steer the suite:
//
//	//repro:hotpath
//	    in a function's doc comment: marks it as part of the simulator's
//	    per-event/per-message hot path, enabling hotlint and tracelint.
//
//	//repro:allow <analyzer> <reason>
//	    suppresses the named analyzer's diagnostics on the directive's own
//	    line and the line below it. The reason is mandatory; a malformed
//	    directive is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding (file path as loaded, 1-based line/column).
	Pos token.Position `json:"pos"`
	// Analyzer is the reporting analyzer's name.
	Analyzer string `json:"analyzer"`
	// Message describes the violation and how to resolve it.
	Message string `json:"message"`
}

// String renders the driver's diagnostic line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's registry key — what //repro:allow directives
	// and diagnostics refer to.
	Name string
	// Doc is a one-line description for the driver's listing.
	Doc string
	// Applies filters packages by import path; nil applies everywhere.
	Applies func(pkgPath string) bool
	// Run inspects the package and reports through the pass.
	Run func(*Pass)
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detlint, Hotlint, Tracelint, Keylint}
}

// analyzerNames is the set of valid //repro:allow targets.
func analyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package

	diags *[]Diagnostic
}

// Fset returns the file set all syntax positions resolve through.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypeOf returns the type of an expression, or nil if the type-checker
// could not resolve it (analyzers must treat nil as "unknown" and stay
// silent rather than guess).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// Reportf records a diagnostic unless an //repro:allow directive for this
// analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunPackage runs every applicable analyzer over the package and returns
// the diagnostics sorted by position. Malformed //repro: directives are
// reported under the pseudo-analyzer "directive".
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, pkg.badDirectives...)
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders by (file, line, column, analyzer, message) so
// driver output and golden tests are stable.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
