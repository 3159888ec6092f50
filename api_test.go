package dope_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api.txt from the root package's exported surface")

// TestAPISurface compares the root package's exported surface — one line
// per constant, variable, function, method, type and exported struct field
// — against the checked-in api.txt, so every change to the public API shows
// in a diff. Regenerate the file with -update-api (make api) only for an
// intended API change.
func TestAPISurface(t *testing.T) {
	got := apiSurface(t)
	if *updateAPI {
		if err := os.WriteFile("api.txt", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestAPISurface -update-api)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotSet, wantSet := lineSet(got), lineSet(want)
	for l := range wantSet {
		if !gotSet[l] {
			t.Errorf("api.txt has, the package lacks: %s", l)
		}
	}
	for l := range gotSet {
		if !wantSet[l] {
			t.Errorf("the package has, api.txt lacks: %s", l)
		}
	}
	t.Error("exported surface differs from api.txt; run make api if the change is intended")
}

func lineSet(b []byte) map[string]bool {
	out := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		out[l] = true
	}
	return out
}

// apiSurface renders the root package's exported declarations, sorted.
func apiSurface(t *testing.T) []byte {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "dope")
	if err != nil {
		t.Fatal(err)
	}
	src := func(n any) string {
		var b strings.Builder
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, s := range v.Decl.Specs {
				s := s.(*ast.ValueSpec)
				for i, id := range s.Names {
					if !id.IsExported() {
						continue
					}
					l := kind + " " + id.Name
					switch {
					case s.Type != nil:
						l += " " + typeSrc(src, s.Type)
					case i < len(s.Values):
						if lit, ok := s.Values[i].(*ast.CompositeLit); ok && lit.Type != nil {
							l += " " + typeSrc(src, lit.Type)
						} else {
							l += " = " + src(s.Values[i])
						}
					}
					lines = append(lines, l)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			d := *f.Decl
			d.Body = nil
			if d.Recv != nil {
				recv := *d.Recv.List[0]
				recv.Names = nil
				d.Recv = &ast.FieldList{List: []*ast.Field{&recv}}
			}
			lines = append(lines, src(&d))
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
		for _, s := range typ.Decl.Specs {
			s := s.(*ast.TypeSpec)
			bare := *s // name and type parameters only
			bare.Assign, bare.Type = token.NoPos, ast.NewIdent("_")
			head := strings.TrimSuffix(src(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&bare}}), " _")
			st, ok := s.Type.(*ast.StructType)
			if !ok || s.Assign.IsValid() {
				sep := " "
				if s.Assign.IsValid() {
					sep = " = "
				}
				lines = append(lines, head+sep+typeSrc(src, s.Type))
				continue
			}
			lines = append(lines, head+" struct")
			for _, f := range st.Fields.List {
				typ := src(f.Type)
				if len(f.Names) == 0 {
					lines = append(lines, head+" struct, "+typ)
				}
				for _, id := range f.Names {
					lines = append(lines, head+" struct, "+id.Name+" "+typ)
				}
			}
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// typeSrc renders a type on one line, with struct fields separated by
// semicolons so a field list stays readable.
func typeSrc(src func(any) string, e ast.Expr) string {
	st, ok := e.(*ast.StructType)
	if !ok {
		return src(e)
	}
	var fields []string
	for _, f := range st.Fields.List {
		fields = append(fields, src(&ast.StructType{Fields: &ast.FieldList{List: []*ast.Field{f}}}))
	}
	for i, f := range fields {
		fields[i] = strings.TrimSuffix(strings.TrimPrefix(f, "struct { "), " }")
	}
	return "struct { " + strings.Join(fields, "; ") + " }"
}
