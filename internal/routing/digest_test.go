package routing_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from the current engine")

// The digest corpus pins the step loop's observable behaviour across
// every mode and hook stack the simulator supports: finite and
// unbounded buffers, each hook stack, three traffic patterns, three
// seeds. A cell's digest covers the final Result, the trace bytes, the
// engine state exported at one mid-run cycle (which pins each mode's
// queue layout packet by packet) and the hooks' own statistics. Any
// refactor of the engine must reproduce all of them exactly.
const (
	digestN       = 5
	digestWarmup  = 50
	digestCycles  = 250
	digestStateAt = 150
	digestLambda  = 0.25
	digestTTL     = 40
)

var digestHooks = []string{"none", "faults", "reliable", "adaptive", "all"}

var digestPatterns = []routing.Pattern{routing.Uniform, routing.BitReverse, routing.Shuffle}

// digestCell runs one cell of the matrix and returns its digest.
// The adaptive cell carries the fault plan too: a router with no
// failures to observe never deviates, so without faults it would
// repeat the no-hook cell.
func digestCell(t *testing.T, bufferLimit int, hooks string, pattern routing.Pattern, seed int64) string {
	t.Helper()
	rows := 1 << digestN
	moduleOf := make([]int, digestN*rows)
	for col := 0; col < digestN; col++ {
		for row := 0; row < rows; row++ {
			moduleOf[col*rows+row] = (row/4)*3 + col/2
		}
	}
	var trace bytes.Buffer
	p := routing.Params{
		N: digestN, Lambda: digestLambda,
		Warmup: digestWarmup, Cycles: digestCycles, Seed: seed,
		ModuleOf: moduleOf, BufferLimit: bufferLimit,
		TTL: digestTTL, Trace: &trace,
	}
	withFaults := hooks == "faults" || hooks == "adaptive" || hooks == "all"
	if withFaults {
		plan := faults.MustPlan(digestN)
		if _, err := plan.AddRandomLinkFaults(0.06, seed+100); err != nil {
			t.Fatal(err)
		}
		if _, err := plan.AddRandomNodeFaults(0.015, seed+200); err != nil {
			t.Fatal(err)
		}
		if err := plan.AddRandomTransientLinkFaults(8, 200, 25, seed+300); err != nil {
			t.Fatal(err)
		}
		p.Faults = plan
		if seed%3 == 0 {
			p.Policy = routing.DropDead
		}
	}
	var tr *reliable.Transport
	if hooks == "reliable" || hooks == "all" {
		var err error
		tr, err = reliable.New(reliable.Config{Timeout: 8, MaxRetries: 2, Jitter: 3, Seed: seed + 400})
		if err != nil {
			t.Fatal(err)
		}
		p.Reliable = tr
	}
	var ad *adaptive.Router
	if hooks == "adaptive" || hooks == "all" {
		cfg := adaptive.DefaultConfig(digestN)
		cfg.Seed = seed + 500
		var err error
		ad, err = adaptive.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Adaptive = ad
	}

	s, err := routing.NewSim(p, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for s.Cycle() < digestStateAt {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	state := fmt.Sprintf("%#v", *s.State())
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "result\n%#v\ntrace\n%s\nstate\n%s\n", *res, trace.Bytes(), state)
	if tr != nil {
		fmt.Fprintf(h, "reliable\n%#v\n", tr.Stats())
	}
	if ad != nil {
		fmt.Fprintf(h, "adaptive\n%#v\n", ad.Stats())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStepDigests compares every cell of the matrix against the
// committed testdata/digests.txt. Regenerate only for a deliberate
// behaviour change, with
// `go test ./internal/routing -run TestStepDigests -update`.
func TestStepDigests(t *testing.T) {
	got := map[string]string{}
	for _, bl := range []int{0, 4} {
		for _, hooks := range digestHooks {
			for _, pat := range digestPatterns {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("buf%d/%s/%s/seed%d", bl, hooks, pat, seed)
					got[name] = digestCell(t, bl, hooks, pat, seed)
				}
			}
		}
	}
	path := filepath.Join("testdata", "digests.txt")
	if *updateDigests {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Step-loop digest corpus: one SHA-256 per cell (see digest_test.go).\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("digest corpus missing (regenerate with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed digest line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("corpus has %d cells, the matrix %d", len(want), len(got))
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no committed digest", name)
		} else if w != d {
			t.Errorf("%s: digest %s, committed %s", name, d[:12], w[:12])
		}
	}
}
