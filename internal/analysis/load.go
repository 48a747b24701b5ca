package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module loads and type-checks the packages of one Go module from source.
// Module-internal imports are resolved by mapping import paths onto
// directories under Root; everything else (the standard library) is
// delegated to the compiler-independent source importer, so the loader
// works offline with no toolchain export data and no external packages.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path from the go.mod module line.
	Path string
	// Fset is shared by every package the module loads (positions from
	// different packages stay comparable).
	Fset *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*Package
	// loading guards against import cycles (invalid Go, but a cycle must
	// produce an error, not a stack overflow).
	loading map[string]bool
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the owning module's file set.
	Fset *token.FileSet
	// Files is the parsed syntax of the non-test sources, file-name order.
	Files []*ast.File
	// Types is the type-checked package object (present even when
	// TypeErrors is non-empty; analysis degrades to the resolvable parts).
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// TypeErrors collects type-checking problems without aborting the load.
	TypeErrors []error

	// src holds each file's bytes (directive parsing needs line context).
	src map[string][]byte

	allows        map[string]map[allowKey]bool
	badDirectives []Diagnostic
}

// Sources returns the raw bytes of each loaded file, keyed by the file name
// positions resolve to (fixture tests scan them for expectations).
func (p *Package) Sources() map[string][]byte { return p.src }

// LoadModule prepares a loader rooted at the directory containing go.mod.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", abs, err)
	}
	path := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			path = strings.TrimSpace(rest)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	m := &Module{
		Root:    abs,
		Path:    path,
		Fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil).(types.ImporterFrom)
	return m, nil
}

// PackageDirs walks the module and returns the import paths of every
// directory holding non-test Go sources, sorted. testdata, hidden, and
// underscore-prefixed directories are skipped, as the go tool does, and so
// is any directory below the root with its own go.mod: that is another
// module.
func (m *Module) PackageDirs() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := goSources(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(m.Root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, m.Path)
		} else {
			paths = append(paths, m.Path+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// goSources lists the directory's non-test .go files, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// dirFor maps a module-internal import path onto its source directory.
func (m *Module) dirFor(importPath string) (string, bool) {
	if importPath == m.Path {
		return m.Root, true
	}
	if rest, ok := strings.CutPrefix(importPath, m.Path+"/"); ok {
		return filepath.Join(m.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Package loads (or returns the cached) package for an import path inside
// the module.
func (m *Module) Package(importPath string) (*Package, error) {
	if p, ok := m.pkgs[importPath]; ok {
		return p, nil
	}
	dir, ok := m.dirFor(importPath)
	if !ok {
		return nil, fmt.Errorf("analysis: %q is not inside module %q", importPath, m.Path)
	}
	return m.PackageAt(dir, importPath)
}

// PackageAt loads and type-checks the sources in dir under the given import
// path. Fixture tests use it to analyze testdata packages as if they lived
// at an arbitrary path (analyzer scoping is path-based).
func (m *Module) PackageAt(dir, importPath string) (*Package, error) {
	if p, ok := m.pkgs[importPath]; ok {
		return p, nil
	}
	if m.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %q", importPath)
	}
	m.loading[importPath] = true
	defer delete(m.loading, importPath)

	files, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	pkg := &Package{
		Path: importPath,
		Dir:  dir,
		Fset: m.Fset,
		src:  make(map[string][]byte),
	}
	for _, fname := range files {
		data, err := os.ReadFile(fname)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(m.Fset, fname, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.src[fname] = data
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: (*moduleImporter)(m),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the first error too; TypeErrors already has it.
	pkg.Types, _ = conf.Check(importPath, m.Fset, pkg.Files, pkg.Info)
	pkg.parseDirectives()
	m.pkgs[importPath] = pkg
	return pkg, nil
}

// moduleImporter adapts Module to types.ImporterFrom: module-internal
// paths are loaded from source through the module cache, everything else
// goes to the standard library source importer.
type moduleImporter Module

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	m := (*Module)(mi)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := m.dirFor(path); ok {
		pkg, err := m.Package(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}
