// Package analysis is a stdlib-only static-analysis framework for this
// repository's determinism invariant. It loads and type-checks module
// packages with go/parser + go/types (no external dependencies; the standard
// library is imported from source), and runs one analyzer over the typed
// syntax:
//
//   - detlint: no wall-clock, global math/rand, or order-sensitive map
//     iteration in determinism-sensitive packages
//
// Every claim the repo makes about the ε+3τ+5δ bound rests on the simulator
// being byte-exactly deterministic. Golden tests catch violations after the
// fact; detlint points at the line that introduced them. TestRealTreeIsClean
// runs it over the whole module as part of `go test ./...`.
//
// One source directive steers it:
//
//	//repro:allow detlint <reason>
//	    suppresses detlint's diagnostics on the directive's own line and
//	    the line below it. The reason is mandatory; a malformed or unknown
//	    //repro: directive is itself a diagnostic.
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
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the violation and how to resolve it.
	Message string
}

// String renders the diagnostic as file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's registry key — what //repro:allow directives
	// and diagnostics refer to.
	Name string
	// Applies filters packages by import path; nil applies everywhere.
	Applies func(pkgPath string) bool
	// Run inspects the package and reports through the pass.
	Run func(*Pass)
}

// Analyzers returns the suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detlint}
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
// test output is stable.
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
