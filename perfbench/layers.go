package main

import (
	"encoding"
	"fmt"
	"slices"

	"bfvlsi/internal/bitutil"
	"bfvlsi/internal/cubelayout"
	"bfvlsi/internal/hierarchy"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/sweepfarm"
	"bfvlsi/internal/thompson"
	"bfvlsi/internal/wire"
)

type layersConfig struct {
	// The simulator probe: BENCH_routing.json's spec.
	// It runs at seed 42.
	RouteN, RouteWarmup, RouteCycles int
	// The layout builders at the paper's sizes; the §5.2 hierarchy is
	// always n=9 with 64-pin chips of side 20.
	ThompsonSpec           []int
	PackagingN, HypercubeN int
	// Repetitions: builders and snapshot operations report the median
	// of their reps; wire operations are timed in batches of WireReps.
	BuilderReps, SnapshotReps, WireReps int
}

// layerSuite collects the per-layer metrics of a traced run. Every
// traced run measures every layer, whatever its workload, on a tracer of
// its own, so each per-layer metric has one definition.
type layerSuite struct {
	cfg  config
	seed int64
	tr   *tracer
	res  *result
}

func (l *layerSuite) set(name string, v float64, unit string, samples int) {
	l.res.Metrics[name] = metric{v, unit, samples}
}

// spanMS sets a metric to the median duration of the named spans.
func (l *layerSuite) spanMS(metricName, spanName string) {
	d := l.tr.durations(spanName)
	l.set(metricName, median(d)*1e3, "ms", len(d))
}

func (l *layerSuite) count(out unitOutcome) {
	l.res.Attempted += out.items
	if out.failed > 0 {
		l.res.Failed += out.failed
		l.res.Failures = append(l.res.Failures, out.why)
	}
}

// check counts one checked operation, failed when err is not nil.
func (l *layerSuite) check(what string, err error) {
	out := unitOutcome{items: 1}
	if err != nil {
		out.failed, out.why = 1, what+": "+err.Error()
	}
	l.count(out)
}

// runLayers runs the traced layer suite and adds its metrics and
// checks to res.
func runLayers(cfg config, seed int64, tr *tracer, res *result) error {
	l := &layerSuite{cfg: cfg, seed: seed, tr: tr, res: res}
	for _, step := range []struct {
		name string
		run  func(parent int) error
	}{
		{"layers.experiments", l.experiments},
		{"layers.builders", l.builders},
		{"layers.routing", l.routing},
		{"layers.sweepfarm", l.sweepfarm},
		{"layers.wire", l.wire},
		{"layers.serve", l.serve},
		{"layers.lint", l.lint},
	} {
		if _, err := tr.timed(step.name, 0, 0, step.run); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
	}
	return nil
}

// experiments times each experiment of one full regeneration.
func (l *layerSuite) experiments(parent int) error {
	w := &tablesWorkload{cfg: l.cfg.Tables}
	if err := w.setup(); err != nil {
		return err
	}
	l.count(w.unit(0, l.tr, parent))
	other, n := 0.0, 0
	for _, ex := range w.exps {
		switch ex.Name {
		case "e3", "e8", "e10", "e13", "e15":
		default:
			d := l.tr.durations("experiments." + ex.Name)
			other += median(d) * 1e3
			n += len(d)
		}
	}
	for _, e := range []string{"e3", "e8", "e10", "e13", "e15"} {
		l.spanMS("experiments."+e+"_ms", "experiments."+e)
	}
	l.set("experiments.other_ms", other, "ms", n)
	return nil
}

// builders calls the layout builders directly at the paper's sizes.
func (l *layerSuite) builders(parent int) error {
	c := l.cfg.Layers
	spec, err := bitutil.NewGroupSpec(c.ThompsonSpec...)
	if err != nil {
		return err
	}
	for i := 0; i < c.BuilderReps; i++ {
		var res *thompson.Result
		_, err := l.tr.timed("thompson.build", parent, i, func(int) (err error) {
			res, err = thompson.Build(thompson.Params{Spec: spec})
			return err
		})
		if err != nil {
			return err
		}
		_, err = l.tr.timed("thompson.validate", parent, i, func(int) error { return res.Validate() })
		l.check("thompson.validate", err)
		if _, err := l.tr.timed("hierarchy.build", parent, i, func(int) error {
			_, err := hierarchy.Design(9, 64, 20)
			return err
		}); err != nil {
			return err
		}
		l.tr.timed("packaging.nucleus", parent, i, func(int) error {
			packaging.NucleusPartition(isn.Transform(thompson.SpecForDim(c.PackagingN))).Stats()
			return nil
		})
		if _, err := l.tr.timed("cubelayout.hypercube", parent, i, func(int) error {
			res, err := cubelayout.Hypercube(c.HypercubeN)
			if err == nil {
				l.check("cubelayout.validate", res.Validate())
			}
			return err
		}); err != nil {
			return err
		}
	}
	for _, n := range []string{"thompson.build", "thompson.validate", "hierarchy.build", "packaging.nucleus", "cubelayout.hypercube"} {
		l.spanMS(n+"_ms", n)
	}
	return nil
}

// routing runs BENCH_routing.json's spec once per hook stack, with the
// what-if workload's hook settings; the differences from vc are the
// marginal hook costs.
func (l *layerSuite) routing(parent int) error {
	c := l.cfg.Layers
	n := c.RouteN
	const seed = 42
	fault := &wire.FaultSpec{N: n, LinkRate: 0.02, Seed: seed}
	rel := &snapshot.ReliableSpec{Timeout: 4 * n, MaxRetries: 5, Jitter: 3, Seed: seed, MeasureFrom: c.RouteWarmup}
	ada := &snapshot.AdaptiveSpec{Seed: seed}
	nodeCycles := float64(n<<uint(n)) * float64(c.RouteWarmup+c.RouteCycles)
	for i, mode := range []struct {
		name   string
		buffer int
		fault  *wire.FaultSpec
		rel    *snapshot.ReliableSpec
		ada    *snapshot.AdaptiveSpec
	}{
		{"plain", 0, nil, nil, nil},
		{"vc", 4, nil, nil, nil},
		{"vc_faults", 4, fault, nil, nil},
		{"vc_reliable", 4, nil, rel, nil},
		{"vc_adaptive", 4, nil, nil, ada},
		{"vc_all", 4, fault, rel, ada},
	} {
		spec := snapshot.Spec{
			Route: wire.RouteSpec{
				N: n, Lambda: 0.10, Warmup: c.RouteWarmup, Cycles: c.RouteCycles,
				Seed: seed, BufferLimit: mode.buffer, Fault: mode.fault,
			},
			Reliable: mode.rel, Adaptive: mode.ada,
		}
		d, err := l.tr.timed("routing."+mode.name, parent, i, func(int) error {
			run, err := snapshot.Start(spec, nil)
			if err != nil {
				return err
			}
			_, err = run.Finish()
			return err
		})
		l.check("routing."+mode.name, err)
		l.set("routing.ns_per_node_cycle."+mode.name, float64(d.Nanoseconds())/nodeCycles, "ns", 1)
	}
	return nil
}

// sweepfarm measures the what-if farm and the snapshot operations it
// is built on, on the workload's own spec.
func (l *layerSuite) sweepfarm(parent int) error {
	w := &whatifWorkload{cfg: l.cfg.Whatif, seed: l.seed}
	if err := w.setup(); err != nil {
		return err
	}
	spec := w.spec
	var ck *snapshot.Checkpoint
	for i := 0; i < 3; i++ {
		if _, err := l.tr.timed("sweepfarm.warm", parent, i, func(int) (err error) {
			ck, err = sweepfarm.WarmCheckpoint(spec)
			return err
		}); err != nil {
			return err
		}
	}
	l.spanMS("sweepfarm.warm_ms", "sweepfarm.warm")

	out, rep := w.farm(0, l.tr, parent)
	l.count(out)
	if rep == nil {
		return fmt.Errorf("the farm failed: %s", out.why)
	}
	wall := l.tr.durations("sweepfarm.farm")
	farmWall := wall[len(wall)-1]
	retx, detours := 0, 0
	for _, p := range rep.Points {
		retx += p.Result.Retransmitted
		detours += p.Result.Detours
	}
	l.set("reliable.retransmitted", float64(retx), "count", 1)
	l.set("adaptive.detours", float64(detours), "count", 1)

	// The serial replay of the farm counts the node-cycles the simulator
	// stepped, from its own cycle counters: the warm run up to the
	// checkpoint, then each point from the checkpoint to its end.
	nodeCycles := ck.Sim.Counters.Nodes * ck.Sim.Cycle
	serial := 0.0
	for i, pt := range spec.Points {
		d, err := l.tr.timed("sweepfarm.point", parent, i, func(int) error {
			run, err := ck.Fork(pt, nil)
			if err != nil {
				return err
			}
			from := run.Sim.Cycle()
			res, err := run.Finish()
			if err != nil {
				return err
			}
			nodeCycles += res.Nodes * (run.Sim.Cycle() - from)
			return nil
		})
		l.check(fmt.Sprintf("sweepfarm point %d", i), err)
		serial += d.Seconds()
	}
	l.set("routing.node_cycles", float64(nodeCycles), "count", 1)
	pts := l.tr.durations("sweepfarm.point")
	l.set("sweepfarm.point_p50_ms", median(pts)*1e3, "ms", len(pts))
	l.set("sweepfarm.point_max_ms", slices.Max(pts)*1e3, "ms", len(pts))
	l.set("sweepfarm.pool_util", serial/(parallelism*farmWall), "1", len(pts))

	// The snapshot layer on the fork checkpoint: capture from a live run
	// at the fork cycle, then the wire round trip and a faulted fork.
	run, err := snapshot.Start(spec.Base, nil)
	if err != nil {
		return err
	}
	if err := run.StepTo(spec.ForkCycle); err != nil {
		return err
	}
	faulted := spec.Points[len(spec.Points)/2]
	var data []byte
	for i := 0; i < l.cfg.Layers.SnapshotReps; i++ {
		l.tr.timed("snapshot.capture", parent, i, func(int) error { ck = run.Checkpoint(); return nil })
		if _, err := l.tr.timed("snapshot.marshal", parent, i, func(int) (err error) {
			data, err = ck.MarshalBinary()
			return err
		}); err != nil {
			return err
		}
		var back snapshot.Checkpoint
		if _, err := l.tr.timed("snapshot.unmarshal", parent, i, func(int) error { return back.UnmarshalBinary(data) }); err != nil {
			return err
		}
		if _, err := l.tr.timed("snapshot.fork", parent, i, func(int) error {
			_, err := back.Fork(faulted, nil)
			return err
		}); err != nil {
			return err
		}
	}
	for _, op := range []string{"capture", "marshal", "unmarshal", "fork"} {
		d := l.tr.durations("snapshot." + op)
		l.set("snapshot."+op+"_us", median(d)*1e6, "us", len(d))
	}
	l.set("snapshot.bytes", float64(len(data)), "bytes", 1)
	return nil
}

// wireValue is a wire type with its canonical binary encoding.
type wireValue interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// wire times the canonical encode and decode of each spec type bfserve
// hashes on every request.
func (l *layerSuite) wire(parent int) error {
	fault := &wire.FaultSpec{N: 5, LinkRate: 0.02, Seed: 7}
	for _, t := range []struct {
		name  string
		v     wireValue
		fresh func() wireValue
	}{
		{"route", &wire.RouteSpec{N: 5, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: 7, BufferLimit: 4, Fault: fault},
			func() wireValue { return new(wire.RouteSpec) }},
		{"layout", &wire.LayoutSpec{Family: wire.FamilyThompson, Widths: []int{3, 3, 3}},
			func() wireValue { return new(wire.LayoutSpec) }},
		{"packaging", &wire.PackagingSpec{N: 9, Variant: wire.VariantNucleus},
			func() wireValue { return new(wire.PackagingSpec) }},
		{"fault", fault, func() wireValue { return new(wire.FaultSpec) }},
		{"sweep", &wire.SweepSpec{N: 4, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: 7, Rates: []float64{0.01, 0.02, 0.05}},
			func() wireValue { return new(wire.SweepSpec) }},
	} {
		data, err := t.v.MarshalBinary()
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		reps := l.cfg.Layers.WireReps
		var enc, dec []float64
		for b := 0; b < 5; b++ {
			d, err := l.tr.timed("wire.encode."+t.name, parent, b, func(int) error {
				for i := 0; i < reps; i++ {
					if _, err := t.v.MarshalBinary(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			enc = append(enc, float64(d.Nanoseconds())/float64(reps))
			d, err = l.tr.timed("wire.decode."+t.name, parent, b, func(int) error {
				for i := 0; i < reps; i++ {
					if err := t.fresh().UnmarshalBinary(data); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			dec = append(dec, float64(d.Nanoseconds())/float64(reps))
		}
		l.set("wire.encode_ns."+t.name, median(enc), "ns", len(enc)*reps)
		l.set("wire.decode_ns."+t.name, median(dec), "ns", len(dec)*reps)
	}
	return nil
}

// serve sends one round of the serve mix, every request traced, plus
// health probes for the HTTP floor.
func (l *layerSuite) serve(parent int) error {
	w := &serveHarness{cfg: l.cfg.Serve, seed: l.seed}
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	for i := 0; i < l.cfg.Serve.Healthz; i++ {
		id := l.tr.begin("serve.healthz", parent, i)
		_, err := w.healthz()
		l.tr.end(id)
		l.check("serve /healthz", err)
	}
	s, hits := w.drive(w.round(), l.tr, parent)
	l.res.Attempted += s.attempted
	l.res.Failed += s.failed
	l.res.Failures = append(l.res.Failures, s.failures...)
	l.spanMS("serve.healthz_p50_ms", "serve.healthz")
	for _, c := range classNames {
		l.spanMS("serve."+c+"_p50_ms", "serve."+c)
	}
	l.set("serve.hit_ratio", float64(hits)/float64(s.attempted), "1", s.attempted)
	ev, err := w.evictions()
	if err != nil {
		return err
	}
	l.set("serve.evictions", float64(ev), "count", 1)
	return nil
}

// lint runs one lint pass and splits it into load and analysis.
func (l *layerSuite) lint(parent int) error {
	w := &lintWorkload{cfg: l.cfg.Lint}
	l.count(w.pass(0, l.tr, parent))
	passes := float64(len(l.tr.durations("lint.pass")))
	analyze := 0.0
	for _, d := range l.tr.durations("lint.analyze") {
		analyze += d
	}
	loads := l.tr.durations("lint.load")
	l.set("lint.load_s", median(loads), "s", len(loads))
	l.set("lint.analyze_ms", analyze/passes*1e3, "ms", int(passes))
	l.set("lint.packages", float64(w.packages), "count", 1)
	return nil
}
