package load

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadTreeSkipsNestedModules pins that "./..." means what it means to
// the go tool: a subdirectory with its own go.mod (this repository's
// benchmark/) is another module and not part of the tree.
func TestLoadTreeSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, content := range map[string]string{
		"go.mod":          "module outer\n\ngo 1.22\n",
		"a/a.go":          "package a\n",
		"nested/go.mod":   "module outer/nested\n\ngo 1.22\n",
		"nested/n.go":     "package nested\n",
		"nested/sub/s.go": "package sub\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || units[0].ImportPath != "outer/a" {
		var got []string
		for _, u := range units {
			got = append(got, u.ImportPath)
		}
		t.Fatalf("LoadTree loaded %v, want only outer/a", got)
	}
}
