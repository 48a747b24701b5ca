package repro_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/live"
	"repro/internal/rsm"
	"repro/internal/rsmbench"
	"repro/internal/scenario"
)

// The source budget: the size of the tree, held exactly in the style of the
// allocation pins. A change that lowers a number lowers its pin; one that
// raises a number re-pins it and says why, so growth shows in the diff.
const (
	// budgetGoLines counts the lines of every non-test .go file in the tree
	// (bench/ included, testdata/ and dot-directories skipped).
	budgetGoLines = 22052
	// budgetReadmeBytes is the size of README.md.
	budgetReadmeBytes = 57672
)

// budgetExported is the number of exported identifiers per package
// directory: package-level names plus exported methods of exported types.
// A directory not listed exports nothing.
var budgetExported = map[string]int{
	".":                                     25,
	"internal/adversary":                    5,
	"internal/analysis":                     17,
	"internal/clock":                        16,
	"internal/core/bconsensus":              17,
	"internal/core/consensus":               58,
	"internal/core/consensus/consensustest": 26,
	"internal/core/dynamics":                13,
	"internal/core/modpaxos":                27,
	"internal/core/paxos":                   24,
	"internal/core/roundbased":              19,
	"internal/experiments":                  19,
	"internal/harness":                      29,
	"internal/leader":                       4,
	"internal/live":                         53,
	"internal/oracle":                       8,
	"internal/protocol":                     11,
	"internal/rsm":                          68,
	"internal/rsmbench":                     8,
	"internal/scenario":                     65,
	"internal/sim":                          25,
	"internal/simnet":                       75,
	"internal/storage":                      25,
	"internal/trace":                        94,
}

// budgetFields is the field count of each configuration struct.
var budgetFields = map[string]int{
	"harness.Config":  20,
	"live.Config":     7,
	"rsm.Config":      9,
	"rsmbench.Config": 17,
	"scenario.Spec":   25,
}

// budgetFlags is the number of flags each command defines, across all of
// its subcommands.
var budgetFlags = map[string]int{
	"cmd/experiments": 7,
	"cmd/scenario":    43,
}

func TestSourceBudget(t *testing.T) {
	lines, exported, flags := 0, map[string]int{}, map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(src, []byte("\n"))
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		exported[dir] += countExported(f)
		if strings.HasPrefix(dir, "cmd/") {
			flags[dir] += countFlags(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.Stat("README.md")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]int{
		"harness.Config":  reflect.TypeOf(harness.Config{}).NumField(),
		"live.Config":     reflect.TypeOf(live.Config{}).NumField(),
		"rsm.Config":      reflect.TypeOf(rsm.Config{}).NumField(),
		"rsmbench.Config": reflect.TypeOf(rsmbench.Config{}).NumField(),
		"scenario.Spec":   reflect.TypeOf(scenario.Spec{}).NumField(),
	}

	const how = "; lower the pin, or raise it and say why in CHANGES.md"
	if lines != budgetGoLines {
		t.Errorf("non-test Go lines: %d, pinned %d%s", lines, budgetGoLines, how)
	}
	if readme.Size() != budgetReadmeBytes {
		t.Errorf("README.md: %d bytes, pinned %d%s", readme.Size(), budgetReadmeBytes, how)
	}
	for _, m := range []struct {
		what      string
		got, want map[string]int
	}{
		{"exported identifiers", exported, budgetExported},
		{"config fields", fields, budgetFields},
		{"flags", flags, budgetFlags},
	} {
		for _, k := range slices.Sorted(maps.Keys(m.got)) {
			if m.got[k] != m.want[k] {
				t.Errorf("%s of %s: %d, pinned %d%s", m.what, k, m.got[k], m.want[k], how)
			}
		}
		for _, k := range slices.Sorted(maps.Keys(m.want)) {
			if _, ok := m.got[k]; !ok {
				t.Errorf("%s of %s: pinned %d, but it is gone%s", m.what, k, m.want[k], how)
			}
		}
	}
}

// countExported counts a file's exported package-level names and the
// exported methods of its exported types.
func countExported(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil || ast.IsExported(receiverType(d.Recv.List[0].Type)) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverType names a method receiver's base type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// flagDefiners are the flag and FlagSet methods that define a flag, with
// the position of the flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
	"TextVar": 1, "Var": 1,
}

// countFlags counts the calls in a file that define a flag: a flag-defining
// method whose name argument is a string literal.
func countFlags(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		at, ok := flagDefiners[sel.Sel.Name]
		if !ok || len(call.Args) < 3 {
			return true
		}
		if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			n++
		}
		return true
	})
	return n
}
