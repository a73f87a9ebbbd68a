package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The workloads read tables_output.txt and run `go list` from the
// repository root, one directory up.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// tinyConfig shrinks every workload and layer probe to a smoke size.
func tinyConfig(t *testing.T) config {
	cfg := fullConfig()
	cfg.SetupReps = 1
	cfg.TraceDir = t.TempDir()
	cfg.Tables.Only = []string{"e1", "e8", "e15"}
	cfg.Whatif = whatifConfig{N: 4, Warmup: 40, Cycles: 80, Rates: []float64{0.05}, SeedsPerRate: 2}
	cfg.Serve.Round, cfg.Serve.Healthz = 40, 5
	cfg.Lint.Patterns = []string{"./internal/routing"}
	cfg.Layers.RouteN, cfg.Layers.RouteWarmup, cfg.Layers.RouteCycles = 4, 20, 50
	cfg.Layers.ThompsonSpec = []int{2, 2}
	cfg.Layers.PackagingN, cfg.Layers.HypercubeN = 6, 4
	cfg.Layers.BuilderReps, cfg.Layers.SnapshotReps, cfg.Layers.WireReps = 1, 2, 10
	return cfg
}

// specMetrics returns BENCHMARK.json's end-to-end and per-layer
// metrics as sorted "name unit" strings.
func specMetrics(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for n, m := range r.Metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at smoke size,
// untraced and traced, and checks that the metrics are exactly those
// BENCHMARK.json names, with its units, and that every check passed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := specMetrics(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				res, err := runWorkload(tinyConfig(t), name, 3, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if got := metricNames(res); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("metrics\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			})
		}
	}
}

// TestCorruptGoldenFails checks that a wrong expectation, a corrupted
// tables golden, shows up as failed items and ok_frac below 1 rather
// than passing silently.
func TestCorruptGoldenFails(t *testing.T) {
	golden, err := os.ReadFile("tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(golden), "==== e8: ")
	if i < 0 {
		t.Fatal("no e8 frame in tables_output.txt")
	}
	corrupt := []byte(string(golden))
	j := i + strings.Index(string(golden[i:]), "\n") + 1
	corrupt[j] ^= 1
	path := filepath.Join(t.TempDir(), "tables_output.txt")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	cfg.Tables.Golden = path
	res, err := runWorkload(cfg, "tables", 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("corrupted golden passed: correct=%v failed=%d ok_frac=%v", res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// wrongHash is the what-if workload expecting a report hash that no
// farm produces.
type wrongHash struct{ *whatifWorkload }

func (w wrongHash) setup() error {
	err := w.whatifWorkload.setup()
	w.want = make([]byte, sha256.Size)
	return err
}

// TestWrongExpectationFails checks the same for the what-if workload's
// report hash.
func TestWrongExpectationFails(t *testing.T) {
	cfg := tinyConfig(t)
	res, err := runEndToEnd(cfg, wrongHash{&whatifWorkload{cfg: cfg.Whatif, seed: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("wrong report hash passed: correct=%v failed=%d ok_frac=%v", res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestCompareFlagsOnlyOutOfBound checks the comparison against the
// bounds in BENCHMARK.json, and that a new result with a failed check
// is flagged even when every metric is within its bound.
func TestCompareFlagsOnlyOutOfBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, rate, okFrac float64, correct bool, failed int) string {
		r := &result{
			Header:  map[string]string{"workload": "whatif"},
			Correct: correct, Attempted: 10000, Failed: failed,
			Metrics: map[string]metric{
				"latency_p50_ms": {p50, "ms", 1},
				"items_per_s":    {rate, "1/s", 1},
				"ok_frac":        {okFrac, "1", 10000},
			},
		}
		var b strings.Builder
		if err := r.print(&b); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.txt", 10, 100, 1, true, 0)
	for _, tc := range []struct {
		name string
		path string
		want int
		show string
	}{
		{"identical", old, 0, ""},
		{"slower", write("slower.txt", 20, 99, 1, true, 0), 1, "REGRESSION"},
		// 50 failures in 10000 is within ok_frac's 1% bound, but a
		// failed check is never within bounds.
		{"failed", write("failed.txt", 10, 100, 0.995, false, 50), 1, "FAILED"},
		{"incorrect", write("incorrect.txt", 10, 100, 1, false, 0), 1, "FAILED"},
	} {
		var out strings.Builder
		flagged, err := compareFiles(&out, "BENCHMARK.json", old, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if flagged != tc.want || !strings.Contains(out.String(), tc.show) {
			t.Errorf("%s: flagged %d, want %d with %q:\n%s", tc.name, flagged, tc.want, tc.show, out.String())
		}
	}
}
