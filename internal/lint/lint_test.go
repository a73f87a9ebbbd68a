package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"strings"
	"testing"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/load"
)

// The acceptance bar for the suite itself: bflint must run clean over
// the whole repository. Any diagnostic here is either a real contract
// violation that needs fixing or an analyzer false positive that needs
// narrowing — both are failures of this PR, not of the code under test.
func TestSuiteCleanOnRepo(t *testing.T) {
	r := lintRepo(t)
	if r.loaded < 10 {
		t.Fatalf("loaded only %d packages; expected the full module", r.loaded)
	}
	if r.checked < 5 {
		t.Fatalf("only %d packages had analyzers bound; binding table looks broken", r.checked)
	}
	if report := r.report(nil); report != "" {
		t.Errorf("bflint is not clean on the repository:\n%s", report)
	}
}

// TestDetrandCatchesWallClockSeed mixes the wall clock into the real
// simulator's seed and asserts detrand flags the time.Now call: a run
// would no longer be a function of (params, seed).
func TestDetrandCatchesWallClockSeed(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/routing", "../routing", "sim.go",
		"\t\"math/rand\"\n", "\t\"math/rand\"\n\t\"time\"\n",
		"detrng.New(p.Seed)", "detrng.New(p.Seed ^ time.Now().UnixNano())")
	msgs := runMutated(t, pkg, "detrand")
	for _, m := range msgs {
		if strings.Contains(m, "time.Now") && strings.Contains(m, "wall clock") {
			return
		}
	}
	t.Errorf("detrand did not flag the wall-clock seed; got %q", msgs)
}

// TestHotallocCatchesLoopMake allocates a scratch buffer inside the
// real VC simulator's //bflint:hotpath link-traversal loop and asserts
// hotalloc flags the make.
func TestHotallocCatchesLoopMake(t *testing.T) {
	const loop = "//bflint:hotpath\n\t\tfor row := 0; row < rows; row++ {\n"
	pkg := loadMutated(t, "bfvlsi/internal/routing", "../routing", "vc.go",
		loop, loop+"\t\t\tscratch := make([]int, n)\n\t\t\t_ = scratch\n")
	msgs := runMutated(t, pkg, "hotalloc")
	for _, m := range msgs {
		if strings.Contains(m, "make inside hot-path loop") {
			return
		}
	}
	t.Errorf("hotalloc did not flag the make in the hot-path loop; got %q", msgs)
}

// The escape hatch must actually work: a //bflint:ignore comment on
// the offending line suppresses exactly the named analyzer, an ignore
// with no names suppresses everything on its line, and an unrelated
// name suppresses nothing. The file is type-checked under a simulator
// import path so detrand really binds.
func TestIgnoreComments(t *testing.T) {
	const src = `package experiments

import "math/rand"

func draws() int {
	a := rand.Intn(3) //bflint:ignore detrand
	b := rand.Intn(3) //bflint:ignore
	c := rand.Intn(3) //bflint:ignore maporder
	d := rand.Intn(3)
	return a + b + c + d
}
`
	l := load.New()
	f, err := parser.ParseFile(l.Fset, "ignorefix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles("bfvlsi/internal/experiments", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, d := range diags {
		if d.Category != "detrand" {
			t.Errorf("unexpected %s diagnostic: %s", d.Category, d.Message)
			continue
		}
		lines = append(lines, pkg.Fset.Position(d.Pos).Line)
	}
	// Lines 8 (ignore names a different analyzer) and 9 (no ignore)
	// must be flagged; lines 6 and 7 must be suppressed.
	want := []int{8, 9}
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Errorf("flagged lines = %v, want %v", lines, want)
	}
}

// The same escape hatch must work for the dataflow-backed analyzers:
// overflowcalc, hotalloc, and sweepshare each honour a same-line
// //bflint:ignore naming them and stay active on unmarked lines. The
// file type-checks under a layout-package path so overflowcalc binds.
func TestIgnoreCommentsDataflowAnalyzers(t *testing.T) {
	const src = `package collinear

import "sync"

func shifts(n int) (int, int, int) {
	a := 1 << uint(n) //bflint:ignore overflowcalc
	b := 1 << uint(n) //bflint:ignore
	c := 1 << uint(n)
	return a, b, c
}

func hot(cycles int) int {
	total := 0
	//bflint:hotpath
	for i := 0; i < cycles; i++ {
		x := make([]int, 4) //bflint:ignore hotalloc
		y := make([]int, 4)
		total += x[0] + y[0]
	}
	return total
}

func sweep(n int) int {
	var wg sync.WaitGroup
	hits := 0
	misses := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits++ //bflint:ignore sweepshare
			misses++
		}()
	}
	wg.Wait()
	return hits + misses
}
`
	l := load.New()
	f, err := parser.ParseFile(l.Fset, "dataflowfix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles("bfvlsi/internal/collinear", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]int{}
	for _, d := range diags {
		got[d.Category] = append(got[d.Category], pkg.Fset.Position(d.Pos).Line)
	}
	want := map[string][]int{
		"overflowcalc": {8},  // a: named ignore, b: blanket ignore, c: flagged
		"hotalloc":     {17}, // x ignored, y flagged
		"sweepshare":   {32}, // hits ignored, misses flagged
	}
	for cat, lines := range want {
		if fmt.Sprint(got[cat]) != fmt.Sprint(lines) {
			t.Errorf("%s flagged lines = %v, want %v", cat, got[cat], lines)
		}
		delete(got, cat)
	}
	for cat, lines := range got {
		t.Errorf("unexpected %s diagnostics on lines %v", cat, lines)
	}
}

// One suppression comment must silence all findings on its line across
// analyzers — here a single bare //bflint:ignore swallows both the
// goleak finding (at the go statement) and the detrand finding (at the
// time.Now call) — and two ignore comments sharing a line must union
// their names rather than the later overwriting the earlier.
func TestIgnoreCrossAnalyzer(t *testing.T) {
	const src = `package serve

import "time"

func fire() {
	go func() { _ = time.Now() }() //bflint:ignore
	go func() { _ = time.Now() }() /*bflint:ignore detrand*/ //bflint:ignore goleak
	go func() { _ = time.Now() }()
}
`
	l := load.New()
	f, err := parser.ParseFile(l.Fset, "crossfix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles("bfvlsi/internal/serve", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}
	byLine := map[int][]string{}
	for _, d := range diags {
		line := pkg.Fset.Position(d.Pos).Line
		byLine[line] = append(byLine[line], d.Category)
	}
	if len(byLine[6]) != 0 {
		t.Errorf("line 6 (bare ignore) still flagged by %v", byLine[6])
	}
	if len(byLine[7]) != 0 {
		t.Errorf("line 7 (two named ignores) still flagged by %v; ignore comments must union", byLine[7])
	}
	want := map[string]bool{"detrand": true, "goleak": true}
	for _, cat := range byLine[8] {
		delete(want, cat)
	}
	if len(want) != 0 {
		t.Errorf("line 8 (no ignore) missing expected findings: %v (got %v)", want, byLine[8])
	}
}

// Every analyzer must bind somewhere, or it is dead weight that the
// repo-clean test silently never exercises.
func TestEveryAnalyzerBindsSomewhere(t *testing.T) {
	bound := map[string]bool{}
	for _, path := range []string{
		"bfvlsi",
		"bfvlsi/internal/routing",
		"bfvlsi/internal/faults",
		"bfvlsi/internal/reliable",
		"bfvlsi/internal/adaptive",
		"bfvlsi/internal/wire",
		"bfvlsi/internal/snapshot",
		"bfvlsi/internal/experiments",
		"bfvlsi/internal/thompson",
		"bfvlsi/internal/dispatch",
		"bfvlsi/cmd/bffault",
		"bfvlsi/examples/chipdesign",
	} {
		for _, a := range lint.AnalyzersFor(path) {
			bound[a.Name] = true
		}
	}
	for _, a := range lint.Suite() {
		if !bound[a.Name] {
			t.Errorf("analyzer %s never binds to any package", a.Name)
		}
	}
}
