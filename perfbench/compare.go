package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// savedResult is a result read back from a saved benchmark output.
type savedResult struct {
	header  map[string]string
	correct bool
	failed  int
	metrics map[string]metric
}

func readResult(path string) (*savedResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &savedResult{header: map[string]string{}}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), ": "); ok && strings.HasPrefix(line, "# ") {
			r.header[k] = v
		}
		if strings.HasPrefix(line, "{") {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var rl resultLine
	if err := json.Unmarshal([]byte(last), &rl); err != nil {
		return nil, fmt.Errorf("%s: no result line: %v", path, err)
	}
	r.correct, r.failed, r.metrics = rl.Correct, rl.Failed, rl.Metrics
	return r, nil
}

// compareFiles prints each metric's change from the old result to the
// new one and flags end-to-end metrics that got worse by more than
// their bound in the spec file. A new result with a failed check is
// flagged whatever the bounds: its correct field is false, or its
// ok_frac is below 1. It returns the number flagged.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (int, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	old, err := readResult(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return 0, err
	}
	for _, k := range []string{"workload", "cpu", "go", "commit"} {
		fmt.Fprintf(w, "# %s: %s -> %s\n", k, old.header[k], cur.header[k])
	}
	if old.header["cpu"] != cur.header["cpu"] || old.header["go"] != cur.header["go"] {
		fmt.Fprintln(w, "# warning: the two results come from different machines or Go versions")
	}
	specs := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	names := make([]string, 0, len(cur.metrics))
	for n := range cur.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	flagged := 0
	if ok, has := cur.metrics["ok_frac"]; !cur.correct || cur.failed > 0 || (has && ok.Value < 1) {
		fmt.Fprintf(w, "# FAILED: the new result has correct=%v and %d failed item(s)\n", cur.correct, cur.failed)
		flagged++
	}
	fmt.Fprintf(w, "%-36s %14s %14s %9s %6s  %s\n", "metric", "old", "new", "delta", "bound", "verdict")
	for _, n := range names {
		nv := cur.metrics[n].Value
		ov, ok := old.metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14.6g %9s %6s  new metric\n", n, "-", nv, "-", "-")
			continue
		}
		delta := "-"
		if ov.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (nv-ov.Value)/ov.Value*100)
		}
		sm := specs[n]
		bound, verdict := "-", ""
		if sm.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", sm.Bound*100)
			worse := (sm.Better == "lower" && nv > ov.Value*(1+sm.Bound)) ||
				(sm.Better == "higher" && nv < ov.Value*(1-sm.Bound))
			verdict = "ok"
			if worse {
				verdict = "REGRESSION"
				flagged++
			}
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9s %6s  %s\n", n, ov.Value, nv, delta, bound, verdict)
	}
	fmt.Fprintf(w, "# %d flag(s): failed checks or metrics outside their bound\n", flagged)
	return flagged, nil
}
