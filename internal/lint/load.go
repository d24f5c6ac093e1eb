package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Loader parses and type-checks every package of one module using only the
// standard library: module-internal imports are resolved straight from the
// source tree, and imports outside the module (the standard library) are
// type-checked from $GOROOT source via go/importer's "source" compiler.
type Loader struct {
	// ModulePath is the module's import path ("repro").
	ModulePath string
	// Dir is the module root directory.
	Dir string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	typeErr []error
}

// NewLoader returns a Loader for the module modulePath rooted at dir.
func NewLoader(modulePath, dir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modulePath,
		Dir:        dir,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

var modLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule reads dir/go.mod for the module path and loads every package
// under dir. It is the entry point used by the CLI and the selfcheck test.
func LoadModule(dir string) (*Loader, []*Package, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	m := modLineRE.FindSubmatch(data)
	if m == nil {
		return nil, nil, fmt.Errorf("lint: no module line in %s/go.mod", dir)
	}
	l := NewLoader(string(m[1]), dir)
	pkgs, err := l.LoadAll()
	return l, pkgs, err
}

// LoadAll walks the module tree and loads every directory that contains at
// least one non-test Go file. testdata, vendor and hidden directories are
// skipped, as the go tool itself would.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(l.sourceFiles(path)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.Dir, path)
		if err != nil {
			return err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", l.Dir, err)
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, ip := range paths {
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Import implements types.Importer so module packages can reference each
// other during type checking.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// TypeErrors returns every type error tolerated during checking. A clean
// module (one that `go build ./...` accepts) must produce none; the selfcheck
// test asserts that, since missing type info silently weakens analyzers.
func (l *Loader) TypeErrors() []error { return l.typeErr }

// sourceFiles lists the non-test Go files of dir that a default `go build`
// compiles, sorted: a file whose build constraints exclude it (the race
// detector's twin of a constant, say) is not part of the package.
func (l *Loader) sourceFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// load parses and type-checks the package at importPath, caching the result.
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	dir := filepath.Join(l.Dir, filepath.FromSlash(rel))
	names := l.sourceFiles(dir)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		// Collect type errors instead of aborting: analyzers degrade
		// gracefully on partial info, and the selfcheck asserts the module
		// checks clean anyway.
		Error: func(err error) { l.typeErr = append(l.typeErr, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	pkg := &Package{
		Path:   importPath,
		Dir:    dir,
		Module: l.ModulePath,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}
