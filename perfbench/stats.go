package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// unitRecord is one timed unit of a workload: a regeneration, a farm
// or a lint pass.
type unitRecord struct {
	dur    time.Duration
	items  int
	traced bool
	// parts are the times of the unit's fixed sequence of steps, when
	// it reports them (the experiments of a regeneration).
	parts []time.Duration
}

// sample is what a workload's measurement loop observed.
type sample struct {
	units []unitRecord
	// wall runs from the start of the loop to the end of its last unit.
	wall time.Duration
	// peaksMB are the units' peak resident set sizes.
	peaksMB   []float64
	attempted int
	failed    int
	failures  []string
}

type unitFilter int

const (
	allUnits unitFilter = iota
	tracedUnits
	untracedUnits
)

func (f unitFilter) keep(u unitRecord) bool {
	return f == allUnits || (f == tracedUnits) == u.traced
}

// fail records n failed items with a reason; only the first few
// reasons are kept.
func (s *sample) fail(n int, why string) {
	s.failed += n
	if len(s.failures) < 5 {
		s.failures = append(s.failures, why)
	}
}

func (s *sample) items(f unitFilter) int {
	n := 0
	for _, u := range s.units {
		if f.keep(u) {
			n += u.items
		}
	}
	return n
}

// p50 is the median unit time in seconds. When every unit reports the
// same number of parts, it is the sum of the parts' medians instead: a
// slow stretch of the host then moves only the parts it overlaps, not a
// whole unit, which matters when a run holds only a few units.
func (s *sample) p50() float64 {
	if len(s.units) == 0 {
		return 0
	}
	n := len(s.units[0].parts)
	durs := make([]float64, len(s.units))
	for i, u := range s.units {
		durs[i] = u.dur.Seconds()
		if len(u.parts) != n {
			n = 0
		}
	}
	if n == 0 {
		return median(durs)
	}
	sum := 0.0
	for p := 0; p < n; p++ {
		xs := make([]float64, len(s.units))
		for k, u := range s.units {
			xs[k] = u.parts[p].Seconds()
		}
		sum += median(xs)
	}
	return sum
}

// rate is items per second: over the loop's wall time for all units,
// over the kept units' summed time otherwise (the traced/untraced
// comparison).
func (s *sample) rate(f unitFilter) float64 {
	if f == allUnits {
		if s.wall <= 0 {
			return 0
		}
		return float64(s.items(allUnits)) / s.wall.Seconds()
	}
	var busy time.Duration
	for _, u := range s.units {
		if f.keep(u) {
			busy += u.dur
		}
	}
	if busy <= 0 {
		return 0
	}
	return float64(s.items(f)) / busy.Seconds()
}

func (s *sample) result() *result {
	return &result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Failures:  s.failures,
	}
}

// unitOutcome is what one unit of a serial workload reports.
type unitOutcome struct {
	items  int // items completed (sweep points for a farm, else 1)
	failed int // items that failed a correctness check
	why    string
	parts  []time.Duration // see unitRecord.parts
}

// serialLoop runs units back to back until the deadline, at least one.
// With a tracer, every odd unit is traced.
func serialLoop(until time.Time, tr *tracer, unit func(i int, tr *tracer) unitOutcome) *sample {
	s := &sample{}
	start := time.Now()
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		var utr *tracer
		if i%2 == 1 {
			utr = tr
		}
		resetPeakRSS()
		t0 := time.Now()
		out := unit(i, utr)
		s.units = append(s.units, unitRecord{dur: time.Since(t0), items: out.items, traced: utr != nil, parts: out.parts})
		s.peaksMB = append(s.peaksMB, peakRSSMB())
		s.attempted += out.items
		if out.failed > 0 {
			s.fail(out.failed, out.why)
		}
	}
	s.wall = time.Since(start)
	return s
}

// median is the middle value, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// resetPeakRSS sets the process's peak resident set size to its current
// one (Linux 4.0 and later), so a later peakRSSMB covers only what ran
// in between. Where the reset fails, the peak covers the whole process
// so far, set-up included: larger, but still a peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// machineHeader describes where a result was measured.
func machineHeader() map[string]string {
	h := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" {
			h["commit"] = rev
			if modified {
				h["commit"] += "+modified"
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
