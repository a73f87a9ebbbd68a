// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time on inputs derived from a seed, checks every output it
// produces, and prints a header, a metric table and, as the last line,
// one JSON result object.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload tables|whatif|lint --seed N --seconds S --trace 0|1
//	perfbench --compare OLD NEW
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of the traced run, and the spans are
// written under .bench_build/trace. README.md in this directory explains
// the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tables, whatif or lint")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	compare := fs.Bool("compare", false, "compare two saved results given as arguments: OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two result files: OLD NEW")
			return 2
		}
		flagged, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if flagged > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	cfg := fullConfig()
	res, err := runWorkload(cfg, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Header = machineHeader()
	res.Header["workload"] = *name
	res.Header["seed"] = fmt.Sprint(*seed)
	res.Header["seconds"] = fmt.Sprint(*seconds)
	res.Header["trace"] = fmt.Sprint(*trace)
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value. Samples is how many measurements the
// value summarises; it is printed in the table, not in the JSON line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is one run's outcome.
type result struct {
	Header    map[string]string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Failures describes the first few failed checks, for stderr.
	Failures []string
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// headerKeys fixes the header's print order.
var headerKeys = []string{"workload", "seed", "seconds", "trace", "cpu", "nproc", "gomaxprocs", "go", "commit"}

func (r *result) print(w io.Writer) error {
	for _, k := range headerKeys {
		if v, ok := r.Header[k]; ok {
			fmt.Fprintf(w, "# %s: %s\n", k, v)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "# metric %-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	line, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload runs the named workload untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(cfg config, name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(cfg, name, seed)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(cfg, w, seed, d)
	}
	return runEndToEnd(cfg, w, d)
}

// runEndToEnd sets the workload up cfg.SetupReps times, keeps the last
// set-up, and measures it for d with tracing off.
func runEndToEnd(cfg config, w workload, d time.Duration) (*result, error) {
	defer w.close()
	setups := make([]float64, 0, cfg.SetupReps)
	for i := 0; i < cfg.SetupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s := w.measure(time.Now().Add(d), nil)
	res := s.result()
	res.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s", len(setups)},
		"items_per_s":    {s.rate(allUnits), "1/s", s.items(allUnits)},
		"latency_p50_ms": {s.p50() * 1e3, "ms", len(s.units)},
		"peak_rss_mb":    {median(s.peaksMB), "MB", len(s.peaksMB)},
		"ok_frac":        {1 - float64(res.Failed)/float64(res.Attempted), "1", res.Attempted},
	}
	return res, nil
}

// runTraced sets the workload up once, measures it for d with every
// other unit traced (the two halves give the tracing overhead), then
// runs the layer suite on a tracer of its own, so the per-layer metrics
// never mix in the loop's spans. Both tracers' spans are written out.
func runTraced(cfg config, w workload, seed int64, d time.Duration) (*result, error) {
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	tr := newTracer()
	s := w.measure(time.Now().Add(d), tr)
	res := s.result()
	res.Metrics = map[string]metric{}
	layers := newTracer()
	if err := runLayers(cfg, seed, layers, res); err != nil {
		return nil, err
	}
	overhead := 0.0
	if plain := s.rate(untracedUnits); plain > 0 {
		overhead = 1 - s.rate(tracedUnits)/plain
	}
	res.Metrics["trace.overhead_frac"] = metric{overhead, "1", len(s.units)}
	res.Correct = res.Failed == 0
	for suffix, t := range map[string]*tracer{"": tr, "-layers": layers} {
		path := filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d%s.jsonl", w.name(), seed, suffix))
		if err := t.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}
