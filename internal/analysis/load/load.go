// Package load type-checks packages of this module (and GOPATH-style fixture
// trees) using only the standard library: module-internal imports are
// resolved against the module root, everything else falls back to the
// source importer over GOROOT. It is the package loader behind dope-vet's
// standalone mode and the analysistest fixture runner — the stdlib stand-in
// for golang.org/x/tools/go/packages.
package load

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
	"sort"
	"strings"
)

// Package is one type-checked analysis unit.
type Package struct {
	// ImportPath is the unit's import path; test variants carry a
	// " [tests]" or "_test" suffix in ID only.
	ImportPath string
	// ID distinguishes the lib, lib+tests, and external-test units of one
	// directory.
	ID    string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages. Not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet
	// ModRoot/ModPath anchor module-internal import resolution; empty when
	// loading a fixture tree only.
	ModRoot string
	ModPath string
	// SrcDirs are GOPATH-style roots (e.g. testdata/src) consulted before
	// the module for import resolution; used by analysistest so fixtures
	// can stub module packages.
	SrcDirs []string

	std     types.Importer
	cache   map[string]*types.Package // import path → lib-only package
	loading map[string]bool

	// imported retains the syntax and type info of every module/fixture
	// package loaded through Import, in completion order (dependencies
	// before dependents). Fact-aware drivers replay analyzers over this
	// closure so cross-package facts exist before the unit under analysis
	// is checked. Standard-library imports are not retained.
	imported      []*Package
	importedByPth map[string]*Package
}

// NewLoader builds a loader rooted at the module containing dir (dir may be
// any path inside the module). With an empty dir the loader resolves only
// SrcDirs and the standard library.
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{
		Fset:          token.NewFileSet(),
		cache:         make(map[string]*types.Package),
		loading:       make(map[string]bool),
		importedByPth: make(map[string]*Package),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	if dir == "" {
		return l, nil
	}
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l.ModRoot, l.ModPath = root, path
	return l, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", dir)
		}
	}
}

// Import implements types.Importer: fixture roots first, then the module,
// then the standard library from source. Only non-test files participate,
// matching the compiler's view of an import.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	if dir, ok := l.dirFor(path); ok {
		l.loading[path] = true
		defer delete(l.loading, path)
		names, err := goFilesIn(dir, false)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("load: no Go files in %s for import %q", dir, path)
		}
		files, err := l.parse(dir, names)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		unit := &Package{
			ImportPath: path, ID: path, Dir: dir,
			Files: files, Types: pkg, Info: info,
		}
		l.imported = append(l.imported, unit)
		l.importedByPth[path] = unit
		return pkg, nil
	}
	return l.std.Import(path)
}

// ImportClosure returns every module/fixture package loaded through Import
// so far, dependencies before dependents (Import for a package completes
// only after its own imports have completed). Standard-library packages are
// excluded.
func (l *Loader) ImportClosure() []*Package {
	out := make([]*Package, len(l.imported))
	copy(out, l.imported)
	return out
}

// dirFor resolves an import path against SrcDirs and the module.
func (l *Loader) dirFor(path string) (string, bool) {
	for _, src := range l.SrcDirs {
		dir := filepath.Join(src, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	if l.ModPath != "" {
		if path == l.ModPath {
			return l.ModRoot, true
		}
		if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
			dir := filepath.Join(l.ModRoot, filepath.FromSlash(rest))
			if hasGoFiles(dir) {
				return dir, true
			}
		}
	}
	return "", false
}

func hasGoFiles(dir string) bool {
	names, err := goFilesIn(dir, false)
	return err == nil && len(names) > 0
}

// goFilesIn lists buildable .go file names in dir, optionally including
// _test.go files.
func goFilesIn(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (GOOS/GOARCH filename suffixes and
		// //go:build lines) for the host platform, as the go tool would:
		// loading both arms of an arch-gated pair (e.g. a _amd64 file and
		// its fallback) redeclares symbols and breaks type-checking.
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as import path and returns the package with its
// type info.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := &types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// LoadDir loads the analysis units of one directory: the package including
// its in-package test files, and, when present, the external _test package.
// importPath is the unit's import path; pass "" to derive it from the
// module layout.
func (l *Loader) LoadDir(dir string, importPath string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if importPath == "" {
		importPath, err = l.importPathFor(abs)
		if err != nil {
			return nil, err
		}
	}
	all, err := goFilesIn(abs, true)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}
	// Split by package clause: lib+in-package tests vs external tests.
	var libNames, extNames []string
	basePkg := ""
	for _, name := range all {
		pkgName, err := packageClause(filepath.Join(abs, name))
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") && strings.HasSuffix(pkgName, "_test") {
			extNames = append(extNames, name)
			continue
		}
		if basePkg == "" {
			basePkg = pkgName
		}
		libNames = append(libNames, name)
	}
	var units []*Package
	if len(libNames) > 0 {
		files, err := l.parse(abs, libNames)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(importPath, files)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			ImportPath: importPath, ID: importPath, Dir: abs,
			Files: files, Types: pkg, Info: info,
		})
	}
	if len(extNames) > 0 {
		files, err := l.parse(abs, extNames)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(importPath+"_test", files)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			ImportPath: importPath, ID: importPath + "_test", Dir: abs,
			Files: files, Types: pkg, Info: info,
		})
	}
	return units, nil
}

// LoadTree loads the units of every package directory under root,
// skipping testdata, vendor, and hidden directories, and — as the go tool's
// "./..." does — any subdirectory that is a module of its own.
func (l *Loader) LoadTree(root string) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var units []*Package
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != abs {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		us, err := l.LoadDir(path, "")
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		units = append(units, us...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return units, nil
}

// importPathFor maps an absolute directory to its module import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	if l.ModRoot == "" {
		return "", fmt.Errorf("load: no module context for %s", abs)
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("load: %s is outside module %s", abs, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// packageClause reads just the package name of a file.
func packageClause(path string) (string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}
