package dope_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow lists the exported identifiers TestExportsReachable accepts
// without a non-test reference, each with the reason nothing names it.
// Keep it short: an entry is a promise that the name is reached some way a
// name scan cannot see. The key is the package directory and the name
// (methods as Type.Method).
var reachAllow = map[string]string{
	". Demand":                               "public helper for CustomGoal mechanisms; the shipped ones call core.Demand",
	". DoPE.SetGoal":                         "the administrator's goal change (§4), the paper's API",
	"internal/core Worker.Item":              "the paper's Task API: the item a nest instance was made for",
	"internal/core TaskType.MarshalJSON":     "json.Marshaler, called by encoding/json",
	"internal/core TaskType.UnmarshalJSON":   "json.Unmarshaler, called by encoding/json",
	"internal/sim eventHeap.Less":            "heap.Interface, called by container/heap",
	"internal/sim eventHeap.Push":            "heap.Interface, called by container/heap",
	"internal/sim eventHeap.Pop":             "heap.Interface, called by container/heap",
	"internal/analysis/analysistest Run":     "test-support package: every analyzer's tests call it",
	"internal/platform VirtualClock.Advance": "deterministic clock step that core, power and platform tests drive",
	"internal/tenancy Arbiter.Unregister":    "Register's counterpart; admin tests pin that name-keyed routes survive it",
}

// decl is one exported package-level name or method.
type decl struct {
	dir  string // package directory, slash-separated, "." for the root
	name string // Name, or Type.Method for methods
	pos  token.Position
}

// TestExportsReachable fails for every exported identifier declared in
// non-test code of the root package or internal/ (analyzer testdata
// excluded) that no non-test file anywhere in the repository names. A
// package-level name is reached by pkg.Name from an importing file or by
// Name inside its own package; a method is reached by any .Method selector,
// since a name scan cannot resolve receivers. Root-package re-exports of
// internal names are exempt (see reexport). Code that only tests call
// belongs in the owning package's export_test.go.
func TestExportsReachable(t *testing.T) {
	fset := token.NewFileSet()
	var decls []decl
	qualified := map[[2]string]bool{} // {import path, name}
	members := map[string]bool{}      // selector names
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." || strings.HasPrefix(dir, "internal/") {
			decls = append(decls, exportedDecls(fset, dir, f)...)
		}
		scanRefs(f, importPath(dir), qualified, members)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var dead []string
	for _, d := range decls {
		key := d.dir + " " + d.name
		seen[key] = true
		reached := qualified[[2]string{importPath(d.dir), d.name}]
		if _, method, ok := strings.Cut(d.name, "."); ok {
			reached = members[method]
		}
		_, allowed := reachAllow[key]
		switch {
		case reached && allowed:
			t.Errorf("%s: %s is reached; drop it from reachAllow", d.pos, d.name)
		case !reached && !allowed:
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	for key := range reachAllow {
		if !seen[key] {
			t.Errorf("reachAllow entry %q names no exported declaration", key)
		}
	}
	if len(reachAllow) > 15 {
		t.Errorf("reachAllow holds %d entries, want at most 15", len(reachAllow))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test reference; delete it, move it to export_test.go, or give it a caller", d)
	}
}

// importPath maps a slash-separated directory of this module (or of the
// benchmark module nested in it) to its import path.
func importPath(dir string) string {
	if dir == "." {
		return "dope"
	}
	return "dope/" + dir
}

// exportedDecls lists f's exported package-level names and exported
// methods (on any receiver).
func exportedDecls(fset *token.FileSet, dir string, f *ast.File) []decl {
	var out []decl
	add := func(id *ast.Ident, name string) {
		if id.IsExported() {
			out = append(out, decl{dir, name, fset.Position(id.Pos())})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Name.Name)
			} else {
				add(d.Name, recvType(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if dir == "." && reexport(s) {
					continue
				}
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name)
					}
				}
			}
		}
	}
	return out
}

// reexport reports whether a root-package spec only gives an internal
// name its public spelling (type T = pkg.T, or X = pkg.X). Callers outside
// the module cannot import internal/, so such a name is reached by being
// public; api.txt guards it instead, and the re-export counts as a
// reference to the internal name.
func reexport(s ast.Spec) bool {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.TypeSpec:
		if !s.Assign.IsValid() {
			return false
		}
		e = s.Type
	case *ast.ValueSpec:
		if s.Type != nil || len(s.Values) != 1 {
			return false
		}
		e = s.Values[0]
	default:
		return false
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	_, ok = sel.X.(*ast.Ident)
	return ok
}

// recvType names a method receiver's base type.
func recvType(e ast.Expr) string {
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

// scanRefs records f's references: pkg.Name selectors on an imported
// package as qualified names, bare identifiers as names of f's own package
// (self), and every other selector's name as a member reference. The
// identifiers that declare f's own package-level names and methods are not
// references.
func scanRefs(f *ast.File, self string, qualified map[[2]string]bool, members map[string]bool) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	declIdents := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declIdents[d.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declIdents[s.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declIdents[id] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			declIdents[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					qualified[[2]string{p, n.Sel.Name}] = true
					return false
				}
			}
			members[n.Sel.Name] = true
		case *ast.Ident:
			if !declIdents[n] {
				qualified[[2]string{self, n.Name}] = true
			}
		}
		return true
	})
}
