package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"bfvlsi/internal/experiments"
)

type tablesConfig struct {
	// Golden is the committed bftables transcript the output must match.
	Golden string
	// Only selects experiments by name; nil regenerates all of them.
	Only []string
}

// tablesWorkload regenerates the paper's experiments through
// experiments.All, framed as cmd/bftables frames them, and compares the
// bytes with the golden transcript.
type tablesWorkload struct {
	cfg  tablesConfig
	exps []experiments.Experiment
	want []byte
}

func (w *tablesWorkload) name() string { return "tables" }
func (w *tablesWorkload) close()       {}

func (w *tablesWorkload) setup() error {
	golden, err := os.ReadFile(w.cfg.Golden)
	if err != nil {
		return err
	}
	frames := splitFrames(string(golden))
	w.exps, w.want = nil, nil
	for _, ex := range experiments.All() {
		if w.cfg.Only != nil && !slices.Contains(w.cfg.Only, ex.Name) {
			continue
		}
		frame, ok := frames[ex.Name]
		if !ok {
			return fmt.Errorf("%s has no frame for %s", w.cfg.Golden, ex.Name)
		}
		w.exps = append(w.exps, ex)
		w.want = append(w.want, frame...)
	}
	if len(w.exps) == 0 {
		return fmt.Errorf("no experiment selected by %v", w.cfg.Only)
	}
	// The warm-up: one quick regeneration, whose output is not checked.
	_, _, err = w.regenerate(true, nil, 0, 0)
	return err
}

func (w *tablesWorkload) measure(until time.Time, tr *tracer) *sample {
	return serialLoop(until, tr, func(i int, tr *tracer) unitOutcome { return w.unit(i, tr, 0) })
}

// unit regenerates every selected experiment once and checks the bytes.
// Its parts are the experiments' times, in w.exps order.
func (w *tablesWorkload) unit(i int, tr *tracer, parent int) unitOutcome {
	id := tr.begin("tables.regenerate", parent, i)
	got, parts, err := w.regenerate(false, tr, id, i)
	tr.end(id)
	switch {
	case err != nil:
		return unitOutcome{items: 1, failed: 1, why: "tables: " + err.Error()}
	case !bytes.Equal(got, w.want):
		return unitOutcome{items: 1, failed: 1, why: fmt.Sprintf("tables: output differs from %s at byte %d", w.cfg.Golden, firstDiff(got, w.want))}
	}
	return unitOutcome{items: 1, parts: parts}
}

// regenerate runs the selected experiments into one transcript and
// returns it with each experiment's time.
func (w *tablesWorkload) regenerate(quick bool, tr *tracer, parent, item int) ([]byte, []time.Duration, error) {
	var buf bytes.Buffer
	cfg := &experiments.Config{W: &buf, Quick: quick}
	parts := make([]time.Duration, 0, len(w.exps))
	for _, ex := range w.exps {
		fmt.Fprintf(&buf, "==== %s: %s ====\n", ex.Name, ex.Desc)
		id := tr.begin("experiments."+ex.Name, parent, item)
		t0 := time.Now()
		err := ex.Run(cfg)
		parts = append(parts, time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ex.Name, err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes(), parts, nil
}

// splitFrames cuts a bftables transcript into its per-experiment
// frames, each from its "==== name: " header through the blank line
// that ends it.
func splitFrames(s string) map[string]string {
	frames := map[string]string{}
	for len(s) > 0 {
		next := strings.Index(s[1:], "\n==== ")
		frame := s
		if next >= 0 {
			frame = s[:next+2]
		}
		s = s[len(frame):]
		if name, _, ok := strings.Cut(strings.TrimPrefix(frame, "==== "), ":"); ok && strings.HasPrefix(frame, "==== ") {
			frames[name] = frame
		}
	}
	return frames
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
