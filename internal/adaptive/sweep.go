package adaptive

import (
	"fmt"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/workpool"
)

// Mode is one recovery strategy under comparison: a static dead-link
// policy or the adaptive router, optionally combined with the end-to-end
// retransmission layer.
type Mode struct {
	Name   string
	Policy routing.Policy
	// Adaptive attaches a Router (Policy is then ignored by the
	// simulator).
	Adaptive bool
	// Retransmit attaches a live reliable transport; without it an
	// observer transport still measures payload delivery.
	Retransmit bool
}

// StandardModes returns the four strategies the E23 sweeps compare: the
// two static policies, the adaptive router alone, and the adaptive
// router with retransmission - the full recovery stack.
func StandardModes() []Mode {
	return []Mode{
		{Name: "drop", Policy: routing.DropDead},
		{Name: "misroute", Policy: routing.Misroute},
		{Name: "adaptive", Adaptive: true},
		{Name: "adaptive+retx", Adaptive: true, Retransmit: true},
	}
}

// Point is one (mode, fault rate) cell of an adaptive link-fault sweep.
type Point struct {
	Mode string
	// Rate is the independent per-link probability of a permanent fault.
	Rate      float64
	DeadLinks int
	Result    *routing.Result
	// Router holds the adaptive router's learning counters (zero for
	// non-adaptive modes).
	Router Stats
	// Transport is the payload-level summary; non-retransmitting modes
	// attach a pure observer transport, so it is live for every mode.
	Transport reliable.Stats
	// Goodput is accepted payloads per node per measured cycle.
	Goodput float64
	// Overhead is Retransmitted / TotalInjected.
	Overhead float64
	Err      error
}

// observer is a transport whose first timer fires after the run ends: it
// never retransmits and leaves the run packet-for-packet untouched, but
// still measures payload delivery (mirrors the internal/reliable sweeps).
func observer(base routing.Params) reliable.Config {
	return reliable.Config{Timeout: base.Warmup + base.Cycles + 1, MaxRetries: 0, Seed: 1}
}

// prepare attaches the mode's machinery to a copy of base: the static
// policy or a fresh Router, and a live or observer transport.
func prepare(base routing.Params, cfg Config, rcfg reliable.Config, m Mode, cellSeed int64) (routing.Params, *Router, *reliable.Transport, error) {
	p := base
	var rt *Router
	if m.Adaptive {
		c := cfg
		c.Seed = cfg.Seed + cellSeed
		var err error
		if rt, err = New(c); err != nil {
			return p, nil, nil, err
		}
		p.Adaptive = rt
	} else {
		p.Policy = m.Policy
	}
	c := rcfg
	if !m.Retransmit {
		c = observer(base)
	}
	c.Seed = rcfg.Seed + cellSeed
	tr, err := reliable.New(c)
	if err != nil {
		return p, nil, nil, err
	}
	tr.MeasureFrom = base.Warmup
	p.Reliable = tr
	return p, rt, tr, nil
}

// finish fills the derived values and asserts copy-exact conservation,
// wrapping failures with the cell's coordinates.
func (pt *Point) finish(rt *Router, tr *reliable.Transport) {
	if pt.Err == nil {
		pt.Err = pt.Result.CheckConservation()
	}
	if pt.Err != nil {
		pt.Err = fmt.Errorf("adaptive: mode %s rate %g: %w", pt.Mode, pt.Rate, pt.Err)
		return
	}
	if rt != nil {
		pt.Router = rt.Stats()
	}
	pt.Transport = tr.Stats()
	pt.Goodput = pt.Result.Throughput
	if pt.Result.TotalInjected > 0 {
		pt.Overhead = float64(pt.Result.Retransmitted) / float64(pt.Result.TotalInjected)
	}
}

// Sweep measures goodput degradation as the permanent link fault rate
// grows, for every mode at every rate. Fault plans are seeded exactly as
// in faults.Sweep (from base.Seed and the rate index) so all modes of a
// rate see the same dead links and the cells line up with the PR-1/PR-2
// sweeps. base.Faults, base.Reliable, and base.Adaptive must be nil.
// base.TTL of 0 becomes faults.DefaultTTL on faulted cells. Cells run
// concurrently; results are mode-major in input order.
func Sweep(base routing.Params, cfg Config, rcfg reliable.Config, modes []Mode, rates []float64) []Point {
	out := make([]Point, len(modes)*len(rates))
	run := func(idx int) {
		mi, ri := idx/len(rates), idx%len(rates)
		pt := &out[idx]
		pt.Mode = modes[mi].Name
		pt.Rate = rates[ri]
		if base.Faults != nil || base.Reliable != nil || base.Adaptive != nil {
			pt.Err = fmt.Errorf("adaptive: mode %s rate %g: base params must not carry Faults, Reliable, or Adaptive", pt.Mode, pt.Rate)
			return
		}
		plan, err := faults.NewPlan(base.N)
		if err != nil {
			pt.Err = err
			pt.finish(nil, nil)
			return
		}
		dead, err := plan.AddRandomLinkFaults(rates[ri], base.Seed+int64(ri)*1_000_003+1)
		if err != nil {
			pt.Err = err
			pt.finish(nil, nil)
			return
		}
		pt.DeadLinks = dead
		p, rt, tr, err := prepare(base, cfg, rcfg, modes[mi], int64(idx)*11_000_027+19)
		if err != nil {
			pt.Err = err
			pt.finish(nil, nil)
			return
		}
		p.Faults = plan
		if p.TTL == 0 && dead > 0 {
			p.TTL = faults.DefaultTTL(base.N)
		}
		pt.Result, pt.Err = routing.Simulate(p)
		pt.finish(rt, tr)
	}
	workpool.ForEach(len(out), run)
	return out
}

// SchemePoint is one (mode, scheme, kill count) cell of the E23
// module-kill recovery sweep.
type SchemePoint struct {
	Mode   string
	Scheme string
	// Killed is the number of modules failed; DeadNodes the resulting
	// dead node count and DeadNodeFrac its fraction of the network.
	Killed       int
	DeadNodes    int
	DeadNodeFrac float64
	Result       *routing.Result
	Router       Stats
	Transport    reliable.Stats
	Goodput      float64
	Overhead     float64
	Err          error
}

// ModuleKillSweep is experiment E23: it fails k whole modules under each
// packaging scheme (row, nucleus, naive - faults.StandardSchemes) and
// measures every recovery mode on the same wreckage. The module draw is
// seeded per kill count exactly as in faults.ModuleKillSweep, shared
// across schemes and modes. This is the sweep behind the PR's headline
// finding: deterministic retries plateau against permanent module-kill
// (PR 2), while the adaptive router's dimension-shift detours and
// epoch-map rejections recover goodput the static policies cannot.
// Results are ordered mode-major, then scheme, then kill count.
func ModuleKillSweep(base routing.Params, cfg Config, rcfg reliable.Config, modes []Mode, schemes []faults.Scheme, kills []int) []SchemePoint {
	out := make([]SchemePoint, len(modes)*len(schemes)*len(kills))
	run := func(idx int) {
		mi := idx / (len(schemes) * len(kills))
		si := idx / len(kills) % len(schemes)
		ki := idx % len(kills)
		sc := schemes[si]
		pt := &out[idx]
		pt.Mode = modes[mi].Name
		pt.Scheme = sc.Name
		pt.Killed = kills[ki]
		fail := func(err error) {
			pt.Err = fmt.Errorf("adaptive: mode %s scheme %s kills %d: %w",
				pt.Mode, pt.Scheme, pt.Killed, err)
		}
		if base.Faults != nil || base.Reliable != nil || base.Adaptive != nil {
			fail(fmt.Errorf("base params must not carry Faults, Reliable, or Adaptive"))
			return
		}
		if pt.Killed < 0 || pt.Killed > sc.NumModules {
			fail(fmt.Errorf("cannot kill %d of %d modules", pt.Killed, sc.NumModules))
			return
		}
		plan, err := faults.NewPlan(base.N)
		if err != nil {
			fail(err)
			return
		}
		// Same per-k seed across schemes and modes: the draw of which
		// modules die is shared, the cells differ only in what a module
		// is and how the survivors route.
		for _, m := range faults.PickModules(sc.NumModules, pt.Killed, base.Seed+int64(ki)*2_000_003+7) {
			killed, err := plan.AddModuleFault(sc.ModuleOf, m, 0, 0)
			if err != nil {
				fail(err)
				return
			}
			pt.DeadNodes += killed
		}
		pt.DeadNodeFrac = float64(pt.DeadNodes) / float64(plan.Nodes())
		p, rt, tr, err := prepare(base, cfg, rcfg, modes[mi], int64(idx)*13_000_021+29)
		if err != nil {
			fail(err)
			return
		}
		p.Faults = plan
		if p.TTL == 0 && pt.Killed > 0 {
			p.TTL = faults.DefaultTTL(base.N)
		}
		pt.Result, err = routing.Simulate(p)
		if err != nil {
			fail(err)
			return
		}
		if err := pt.Result.CheckConservation(); err != nil {
			fail(err)
			return
		}
		if rt != nil {
			pt.Router = rt.Stats()
		}
		pt.Transport = tr.Stats()
		pt.Goodput = pt.Result.Throughput
		if pt.Result.TotalInjected > 0 {
			pt.Overhead = float64(pt.Result.Retransmitted) / float64(pt.Result.TotalInjected)
		}
	}
	workpool.ForEach(len(out), run)
	return out
}
