package load_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bfvlsi/internal/lint/load"
)

// loadedPaths loads the patterns and returns the import paths in the
// order Load gives them.
func loadedPaths(t *testing.T, patterns ...string) []string {
	t.Helper()
	pkgs, err := load.New().Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	return paths
}

// goList returns the import paths plain `go list` prints for the
// patterns: the command-line order bflint's findings follow.
func goList(t *testing.T, patterns ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, patterns...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", patterns, err)
	}
	return strings.Fields(string(out))
}

// chdir moves the test into dir until it ends; the loader resolves
// patterns relative to the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// writeModule lays out a throwaway module from path → source pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	t.Setenv("GOPROXY", "off")
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// Load asks go list for dependency order to read export data, but must
// hand back the packages in the order plain `go list` prints them, or
// bflint's text, -json and -sarif findings would be reordered.
func TestLoadKeepsCommandLineOrder(t *testing.T) {
	schemaSet := []string{
		"bfvlsi/internal/wire",
		"bfvlsi/internal/snapshot",
		"bfvlsi/internal/routing",
		"bfvlsi/internal/reliable",
		"bfvlsi/internal/adaptive",
	}
	if got := loadedPaths(t, schemaSet...); !slices.Equal(got, schemaSet) {
		t.Errorf("Load(schema set) order = %v, want %v", got, schemaSet)
	}
	for _, patterns := range [][]string{
		{"bfvlsi/..."},
		{"bfvlsi/internal/wire", "bfvlsi/internal/...", "bfvlsi/internal/wire"},
	} {
		want := goList(t, patterns...)
		if got := loadedPaths(t, patterns...); !slices.Equal(got, want) {
			t.Errorf("Load(%v) order:\n got %v\nwant %v", patterns, got, want)
		}
	}
}

// A wildcard over import paths comes back sorted, one over directories
// in walk order; "a-b" sorts between "a" and "a/x" by import path but
// after both in a directory walk.
func TestLoadKeepsWildcardOrder(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{
		"go.mod":    "module m\n\ngo 1.22\n",
		"a/a.go":    "package a\n",
		"a/x/x.go":  "package x\n\nimport _ \"m/a-b\"\n",
		"a-b/ab.go": "package ab\n",
		"z/z.go":    "package z\n\nimport _ \"m/a/x\"\n",
	}))
	for _, patterns := range [][]string{{"./..."}, {"m/..."}, {"./z", "./..."}} {
		want := goList(t, patterns...)
		if got := loadedPaths(t, patterns...); !slices.Equal(got, want) {
			t.Errorf("Load(%v) order:\n got %v\nwant %v", patterns, got, want)
		}
	}
}

// Bad input is an error that names the problem, never a panic or an
// empty load.
func TestLoadErrors(t *testing.T) {
	if _, err := load.New().Load("bfvlsi/nosuchdir/..."); err == nil || !strings.Contains(err.Error(), "matched no packages") {
		t.Errorf("pattern matching nothing: err = %v, want a matched-no-packages error", err)
	}

	chdir(t, writeModule(t, map[string]string{
		"go.mod":       "module broken\n\ngo 1.22\n",
		"bad/bad.go":   "package bad\n\nvar X int = undefinedName\n",
		"good/good.go": "package good\n",
	}))
	if _, err := load.New().Load("./..."); err == nil || !strings.Contains(err.Error(), "undefinedName") {
		t.Errorf("package that fails to compile: err = %v, want one naming undefinedName", err)
	}
}

// CheckFiles on a file importing a package nobody can provide fails
// with an error naming the import.
func TestCheckFilesUnknownImport(t *testing.T) {
	t.Setenv("GOPROXY", "off")
	l := load.New()
	f, err := parser.ParseFile(l.Fset, "unknown.go", "package p\n\nimport \"nosuchpkg/xyz\"\n\nvar _ = xyz.X\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CheckFiles("example/p", "", []*ast.File{f}); err == nil || !strings.Contains(err.Error(), "nosuchpkg/xyz") {
		t.Errorf("unknown import: err = %v, want one naming nosuchpkg/xyz", err)
	}
}

// CheckFiles lists every import no earlier load covered in one go list
// call, not one per import. A wrapper named go, first on PATH, counts
// the invocations and hands each to the real go command.
func TestCheckFilesListsImportsOnce(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("the counting wrapper is a shell script")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	calls := filepath.Join(bin, "calls")
	script := fmt.Sprintf("#!/bin/sh\necho >> %q\nexec %q \"$@\"\n", calls, goBin)
	if err := os.WriteFile(filepath.Join(bin, "go"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", bin+string(os.PathListSeparator)+os.Getenv("PATH"))
	t.Setenv("GOPROXY", "off")

	const src = `package p

import (
	"fmt"
	"sort"
	"strings"

	"bfvlsi/internal/detrng"
)

var _ = fmt.Sprint(sort.IntsAreSorted(nil), strings.ToUpper("x"), detrng.New(1).Draws())
`
	l := load.New()
	f, err := parser.ParseFile(l.Fset, "multi.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CheckFiles("example/p", "", []*ast.File{f}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(calls)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Errorf("CheckFiles of a four-import file ran go %d times, want 1", n)
	}
}
