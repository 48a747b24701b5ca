package analysis_test

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadFixture loads one testdata package under a pretend import path (the
// analyzers scope themselves by path, so fixtures masquerade as the package
// they exercise).
func loadFixture(t *testing.T, mod *analysis.Module, dir, importPath string) *analysis.Package {
	t.Helper()
	pkg, err := mod.PackageAt(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.TypeErrors[0])
	}
	return pkg
}

// wantRe matches one expectation comment: // want `regexp`
var wantRe = regexp.MustCompile("// want `([^`]*)`")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the // want expectations from the fixture sources.
func parseWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for file, src := range pkg.Sources() {
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, m[1], err)
				}
				wants = append(wants, &want{file: file, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkWants verifies the diagnostics and expectations cover each other
// exactly: every diagnostic has a matching // want on its line, and every
// // want is hit.
func checkWants(t *testing.T, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	mod, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dir      string
		path     string
		analyzer *analysis.Analyzer
	}{
		// det masquerades as a simulator package so detlint applies.
		{"testdata/src/det", "repro/internal/sim/testdata/det", analysis.Detlint},
	}
	for _, tc := range cases {
		t.Run(tc.dir[len("testdata/src/"):], func(t *testing.T) {
			pkg := loadFixture(t, mod, tc.dir, tc.path)
			diags := analysis.RunPackage(pkg, []*analysis.Analyzer{tc.analyzer})
			checkWants(t, diags, parseWants(t, pkg))
		})
	}
}

// TestDirectiveDiagnostics pins the malformed-directive diagnostics (the
// "directive" pseudo-analyzer) against the dir fixture, line by line.
func TestDirectiveDiagnostics(t *testing.T) {
	mod, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, mod, "testdata/src/dir", "repro/internal/analysis/testdata/src/dir")
	diags := analysis.RunPackage(pkg, nil)
	expected := []struct {
		line    int
		message string
	}{
		{5, "//repro:allow detlint needs a reason (say why the site is safe)"},
		{9, `//repro:allow names unknown analyzer "fmtlint"`},
		{13, "unknown directive //repro:frobnicate"},
	}
	var got, want []string
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("unexpected analyzer %q in directive fixture: %s", d.Analyzer, d)
			continue
		}
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	for _, e := range expected {
		want = append(want, fmt.Sprintf("%d: %s", e.line, e.message))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("directive diagnostics mismatch:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRealTreeIsClean is the determinism lint: the repository's own
// packages must pass detlint. A new wall-clock call, global rand draw or
// order-sensitive map range in a determinism-sensitive package fails here,
// as does a malformed or unknown //repro: directive anywhere in the module.
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := mod.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := mod.Package(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, d := range analysis.RunPackage(pkg, analysis.Analyzers()) {
			t.Errorf("%s", d)
		}
	}
}

// TestPackageDirsSkipsNestedModules holds the loader to the go tool's module
// boundary: bench/ has its own go.mod, so it is not a package of this module.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	mod, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := mod.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(paths, "repro/bench") {
		t.Errorf("PackageDirs lists repro/bench, a directory with its own go.mod")
	}
	if !slices.Contains(paths, "repro/internal/analysis") {
		t.Errorf("PackageDirs misses repro/internal/analysis: %v", paths)
	}
}
