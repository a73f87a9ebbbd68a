package reliable

import (
	"fmt"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/workpool"
)

// Mode is one recovery strategy under comparison: a dead-link routing
// policy, optionally combined with the end-to-end retransmission layer.
type Mode struct {
	Name       string
	Policy     routing.Policy
	Retransmit bool
}

// StandardModes returns the four strategies the degradation sweeps
// compare: the two PR-1 policies alone and each combined with
// retransmission.
func StandardModes() []Mode {
	return []Mode{
		{Name: "drop", Policy: routing.DropDead},
		{Name: "misroute", Policy: routing.Misroute},
		{Name: "drop+retx", Policy: routing.DropDead, Retransmit: true},
		{Name: "misroute+retx", Policy: routing.Misroute, Retransmit: true},
	}
}

// Point is one (mode, fault rate) cell of a reliability sweep.
type Point struct {
	Mode string
	// Rate is the fault level: under Sweep the independent per-link
	// probability of a permanent fault, under OutageSweep the expected
	// steady-state fraction of links in outage.
	Rate float64
	// DeadLinks is the number of directed links killed permanently
	// (Sweep); Outages the number of transient outages scheduled
	// (OutageSweep).
	DeadLinks int
	Outages   int
	Result    *routing.Result
	// Stats is the transport's payload-level summary. Modes without
	// retransmission attach a pure observer transport (timers beyond the
	// run horizon), so payload accounting and latency percentiles are
	// available for every mode without perturbing the simulation.
	Stats Stats
	// Goodput is accepted payloads per node per measured cycle (equal to
	// Result.Throughput: duplicates are never counted delivered).
	Goodput float64
	// P99Latency is the 0.99-quantile end-to-end delivery latency over
	// payloads first injected inside the measurement window.
	P99Latency float64
	// Overhead is Retransmitted / TotalInjected: the fraction of extra
	// copies the reliability layer pushed into the network.
	Overhead float64
	Err      error
}

// observer returns a transport configuration whose first timer fires
// after the run ends: it never retransmits, never abandons, and leaves
// the simulation packet-for-packet identical to running without a
// transport - but still measures payload delivery and latency.
func observer(base routing.Params) Config {
	return Config{Timeout: base.Warmup + base.Cycles + 1, MaxRetries: 0, Seed: 1}
}

// prepare builds the per-cell transport and finalizes params shared by
// both sweep kinds.
func prepare(base routing.Params, cfg Config, m Mode, cellSeed int64) (routing.Params, *Transport, error) {
	p := base
	p.Policy = m.Policy
	c := cfg
	if !m.Retransmit {
		c = observer(base)
	}
	c.Seed = cfg.Seed + cellSeed
	tr, err := New(c)
	if err != nil {
		return p, nil, err
	}
	tr.MeasureFrom = base.Warmup
	p.Reliable = tr
	return p, tr, nil
}

// finish fills the derived curve values and asserts conservation,
// wrapping any inconsistency with the cell's coordinates so a sweep
// fails loudly instead of emitting a bad row.
func (pt *Point) finish(tr *Transport) {
	if pt.Err != nil {
		pt.Err = fmt.Errorf("reliable: mode %s rate %g: %w", pt.Mode, pt.Rate, pt.Err)
		return
	}
	if err := pt.Result.CheckConservation(); err != nil {
		pt.Err = fmt.Errorf("reliable: mode %s rate %g: %w", pt.Mode, pt.Rate, err)
		return
	}
	pt.Stats = tr.Stats()
	pt.Goodput = pt.Result.Throughput
	pt.P99Latency = tr.LatencyPercentile(0.99)
	if pt.Result.TotalInjected > 0 {
		pt.Overhead = float64(pt.Result.Retransmitted) / float64(pt.Result.TotalInjected)
	}
}

// Sweep measures goodput, p99 delivery latency, and retransmission
// overhead as the rate of permanent link faults grows, for every mode at
// every rate. Fault plans are seeded exactly as in faults.Sweep (derived
// from base.Seed and the rate index), so all modes of a rate see the
// same dead links and the cells line up with a plain faults.Sweep for
// comparison. Transports derive per-cell seeds from cfg.Seed. base.TTL
// of 0 is replaced by faults.DefaultTTL on faulted cells. base.Faults
// and base.Reliable must be nil. Cells run concurrently; results are
// mode-major in input order.
//
// Note the physics this sweep exposes: with deterministic routing a
// retransmitted copy retraces its predecessor's path, so against
// permanent holes end-to-end retries recover little beyond what the
// misroute policy already saves - the retransmission columns mostly
// measure wasted overhead. Recovery earns its keep against repairable
// outages; that is OutageSweep.
func Sweep(base routing.Params, cfg Config, modes []Mode, rates []float64) []Point {
	return sweep(base, cfg, modes, rates, 0)
}

// OutageSweep is the transient-fault reliability sweep: at each rate it
// schedules random link outages of the given duration (cycles) so that
// the expected steady-state fraction of links down is the rate, and
// measures every recovery mode on the same outage schedule. A retry that
// fires after the outage repairs goes through - this is the regime where
// the retransmission layer genuinely recovers goodput rather than just
// paying overhead. outage must be >= 1.
func OutageSweep(base routing.Params, cfg Config, modes []Mode, rates []float64, outage int) []Point {
	return sweep(base, cfg, modes, rates, outage)
}

func sweep(base routing.Params, cfg Config, modes []Mode, rates []float64, outage int) []Point {
	out := make([]Point, len(modes)*len(rates))
	run := func(idx int) {
		mi, ri := idx/len(rates), idx%len(rates)
		pt := &out[idx]
		pt.Mode = modes[mi].Name
		pt.Rate = rates[ri]
		if base.Faults != nil || base.Reliable != nil {
			pt.Err = fmt.Errorf("reliable: base params must not carry Faults or Reliable")
			return
		}
		if outage < 0 {
			pt.Err = fmt.Errorf("reliable: negative outage duration %d", outage)
			return
		}
		plan, err := faults.NewPlan(base.N)
		if err != nil {
			pt.Err = err
			pt.finish(nil)
			return
		}
		faultSeed := base.Seed + int64(ri)*1_000_003 + 1
		if outage > 0 {
			// count outages of the given length so that the expected
			// number of links concurrently down is rate * links.
			horizon := base.Warmup + base.Cycles
			links := 2 * plan.Nodes()
			count := int(rates[ri]*float64(links)*float64(horizon)/float64(outage) + 0.5)
			if count > 0 {
				if err := plan.AddRandomTransientLinkFaults(count, horizon, outage, faultSeed); err != nil {
					pt.Err = err
					pt.finish(nil)
					return
				}
			}
			pt.Outages = count
		} else {
			dead, err := plan.AddRandomLinkFaults(rates[ri], faultSeed)
			if err != nil {
				pt.Err = err
				pt.finish(nil)
				return
			}
			pt.DeadLinks = dead
		}
		p, tr, err := prepare(base, cfg, modes[mi], int64(idx)*7_000_003+13)
		if err != nil {
			pt.Err = err
			pt.finish(nil)
			return
		}
		p.Faults = plan
		if p.TTL == 0 && plan.NumEvents() > 0 {
			p.TTL = faults.DefaultTTL(base.N)
		}
		pt.Result, pt.Err = routing.Simulate(p)
		pt.finish(tr)
	}
	workpool.ForEach(len(out), run)
	return out
}

// SchemePoint is one (mode, scheme, kill count) cell of a module-kill
// reliability sweep.
type SchemePoint struct {
	Mode   string
	Scheme string
	// Killed is the number of modules failed; DeadNodes the resulting
	// dead node count and DeadNodeFrac its fraction of the network.
	Killed       int
	DeadNodes    int
	DeadNodeFrac float64
	Result       *routing.Result
	Stats        Stats
	Goodput      float64
	P99Latency   float64
	Overhead     float64
	Err          error
}

// ModuleKillSweep is the packaging comparison with recovery in the loop:
// it fails k whole modules under each scheme (row, nucleus, naive - see
// faults.StandardSchemes) and measures every recovery mode on the same
// wreckage. The module draw is seeded per kill count exactly as in
// faults.ModuleKillSweep, shared across schemes and modes. Results are
// ordered mode-major, then scheme, then kill count.
func ModuleKillSweep(base routing.Params, cfg Config, modes []Mode, schemes []faults.Scheme, kills []int) []SchemePoint {
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
			pt.Err = fmt.Errorf("reliable: mode %s scheme %s kills %d: %w",
				pt.Mode, pt.Scheme, pt.Killed, err)
		}
		if base.Faults != nil || base.Reliable != nil {
			fail(fmt.Errorf("base params must not carry Faults or Reliable"))
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
		for _, m := range faults.PickModules(sc.NumModules, pt.Killed, base.Seed+int64(ki)*2_000_003+7) {
			killed, err := plan.AddModuleFault(sc.ModuleOf, m, 0, 0)
			if err != nil {
				fail(err)
				return
			}
			pt.DeadNodes += killed
		}
		pt.DeadNodeFrac = float64(pt.DeadNodes) / float64(plan.Nodes())
		p, tr, err := prepare(base, cfg, modes[mi], int64(idx)*9_000_011+17)
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
		pt.Stats = tr.Stats()
		pt.Goodput = pt.Result.Throughput
		pt.P99Latency = tr.LatencyPercentile(0.99)
		if pt.Result.TotalInjected > 0 {
			pt.Overhead = float64(pt.Result.Retransmitted) / float64(pt.Result.TotalInjected)
		}
	}
	workpool.ForEach(len(out), run)
	return out
}
