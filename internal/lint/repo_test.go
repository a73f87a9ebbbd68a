package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/load"
)

// repoLint is one load of the whole module and one run of every bound
// analyzer over it. The repo-clean gates share it, so a test process
// loads the module once whichever of them run.
type repoLint struct {
	loaded   int // packages loaded
	checked  int // packages with at least one analyzer bound
	findings []repoFinding
	err      error
}

type repoFinding struct {
	pos, message, category string
}

var (
	repoOnce   sync.Once
	repoResult repoLint
)

// lintRepo returns the shared whole-module lint run, doing it on first
// use.
func lintRepo(t *testing.T) *repoLint {
	t.Helper()
	repoOnce.Do(func() { repoResult = runRepoLint() })
	if repoResult.err != nil {
		t.Fatal(repoResult.err)
	}
	return &repoResult
}

func runRepoLint() repoLint {
	pkgs, err := load.New().Load("bfvlsi/...")
	if err != nil {
		return repoLint{err: err}
	}
	r := repoLint{loaded: len(pkgs)}
	for _, p := range pkgs {
		if len(lint.AnalyzersFor(p.Path)) == 0 {
			continue
		}
		r.checked++
		diags, err := lint.Run(p.Path, p.Fset, p.Files, p.Types, p.Info)
		if err != nil {
			return repoLint{err: fmt.Errorf("%s: %v", p.Path, err)}
		}
		for _, d := range diags {
			r.findings = append(r.findings, repoFinding{p.Fset.Position(d.Pos).String(), d.Message, d.Category})
		}
	}
	return r
}

// report lists the findings of the given analyzers, one a line, or of
// every analyzer when categories is nil.
func (r *repoLint) report(categories map[string]bool) string {
	var b strings.Builder
	for _, f := range r.findings {
		if categories == nil || categories[f.category] {
			fmt.Fprintf(&b, "%s: %s (%s)\n", f.pos, f.message, f.category)
		}
	}
	return b.String()
}

// loadMutated parses every non-test file of the package under dir,
// applying each old→new edit pair, in order, to the named file, and
// type-checks the result. File names keep their directory so schemalock
// resolves the same schema.lock the real package uses.
func loadMutated(t *testing.T, pkgPath, dir, mutateFile string, edits ...string) *load.Package {
	t.Helper()
	if len(edits) == 0 || len(edits)%2 != 0 {
		t.Fatalf("edits must be old, new pairs; got %d strings", len(edits))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := load.New()
	var files []*ast.File
	applied := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if name == mutateFile {
			for i := 0; i < len(edits); i += 2 {
				old, new := edits[i], edits[i+1]
				mutated := strings.Replace(text, old, new, 1)
				if mutated == text {
					t.Fatalf("mutation did not apply; %s no longer contains:\n%s", mutateFile, old)
				}
				text = mutated
			}
			applied = true
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), text, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if !applied {
		t.Fatalf("mutation target %s not found in %s", mutateFile, dir)
	}
	pkg, err := l.CheckFiles(pkgPath, "", files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// runMutated lints the mutated package and returns the diagnostics of
// one analyzer. Sibling analyzers may legitimately fire on the same
// mutation (adding a field trips wirecover as well as schemalock), so
// unexpected categories are not errors here.
func runMutated(t *testing.T, pkg *load.Package, category string) []string {
	t.Helper()
	diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		if d.Category == category {
			msgs = append(msgs, d.Message)
		}
	}
	return msgs
}
