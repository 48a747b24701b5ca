// Command repro-lint runs the repository's domain static-analysis suite
// (internal/analysis) over the module and reports violations of the
// invariants the reproduction depends on:
//
//   - detlint:      determinism — no wall-clock, global math/rand, or
//     order-sensitive map iteration in simulator-facing packages
//   - hotlint:      no closures, interface boxing, fmt, or per-iteration
//     allocation in //repro:hotpath functions
//   - tracelint:    hot-reachable code uses the interned dense trace
//     counters, never the string-keyed slow path
//   - keylint:      Store.Put keys start with a prefix declared in the
//     internal/storage key registry
//
// Usage:
//
//	repro-lint [-json] [-list] [packages]
//
// Packages are import paths or ./...-style patterns relative to the module
// root; the default (and "./...") is every package in the module. Exit
// status is 1 when any diagnostic is reported, 2 on loader errors.
// Diagnostics print as
//
//	file:line:col: [analyzer] message
//
// and -json emits them as a JSON array for machine consumption.
// Suppressions (//repro:allow <analyzer> <reason>) and hot-path marks
// (//repro:hotpath) are documented in internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro-lint [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	paths, err := selectPackages(mod, flag.Args())
	if err != nil {
		fatal(err)
	}

	var diags []analysis.Diagnostic
	for _, path := range paths {
		pkg, err := mod.Package(path)
		if err != nil {
			fatal(err)
		}
		diags = append(diags, analysis.RunPackage(pkg, analysis.Analyzers())...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "repro-lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "repro-lint: %v\n", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// selectPackages expands the command-line package patterns against the
// module. Supported forms: none or "./..." (everything), "repro/...",
// an exact import path, a "./pkg" relative path, and "./pkg/..." prefixes.
func selectPackages(mod *analysis.Module, args []string) ([]string, error) {
	all, err := mod.PackageDirs()
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return all, nil
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		pattern := normalizePattern(mod.Path, arg)
		matched := false
		if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
		} else {
			for _, p := range all {
				if p == pattern {
					add(p)
					matched = true
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("no packages match %q", arg)
		}
	}
	return out, nil
}

// normalizePattern rewrites ./-relative patterns to import paths.
func normalizePattern(modPath, arg string) string {
	arg = strings.TrimSuffix(arg, "/")
	if arg == "." || arg == "./..." {
		return modPath + "/..."
	}
	if rest, ok := strings.CutPrefix(arg, "./"); ok {
		return modPath + "/" + rest
	}
	return arg
}
