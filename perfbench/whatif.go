package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/sweepfarm"
	"bfvlsi/internal/wire"
)

type whatifConfig struct {
	N, Warmup, Cycles int
	// Rates are the link fault rates; each gets SeedsPerRate fault seeds.
	Rates        []float64
	SeedsPerRate int
}

// Seed streams of derive; each input family draws from its own.
const (
	streamWhatifTraffic = iota + 1
	streamWhatifFault
	streamWhatifHooks
	streamServeMix
	streamServeSeed
)

// farmSpec is the what-if sweep: the reliable+adaptive base stack at
// λ=0.10 with VC buffers of 4, forked at the end of warm-up into a
// fault-free control point plus every (rate, fault seed) pair.
func (c whatifConfig) farmSpec(seed int64) sweepfarm.Spec {
	base := snapshot.Spec{
		Route: wire.RouteSpec{
			N: c.N, Lambda: 0.10, Warmup: c.Warmup, Cycles: c.Cycles,
			Seed: derive(seed, streamWhatifTraffic, 0), BufferLimit: 4,
		},
		Reliable: &snapshot.ReliableSpec{
			Timeout: 4 * c.N, MaxRetries: 5, Jitter: 3,
			Seed: derive(seed, streamWhatifHooks, 0), MeasureFrom: c.Warmup,
		},
		Adaptive: &snapshot.AdaptiveSpec{Seed: derive(seed, streamWhatifHooks, 1)},
	}
	points := []*wire.FaultSpec{nil}
	for r, rate := range c.Rates {
		for k := 0; k < c.SeedsPerRate; k++ {
			points = append(points, &wire.FaultSpec{
				N: c.N, LinkRate: rate, Seed: derive(seed, streamWhatifFault, uint64(r*c.SeedsPerRate+k)),
			})
		}
	}
	return sweepfarm.Spec{Base: base, ForkCycle: c.Warmup, Points: points}
}

// whatifWorkload runs the sweep farm in process, as bfsweep does.
type whatifWorkload struct {
	cfg  whatifConfig
	seed int64
	spec sweepfarm.Spec
	// want is the SHA-256 of the first measured farm's report; every
	// later farm of the run must reproduce it.
	want []byte
}

func (w *whatifWorkload) name() string { return "whatif" }
func (w *whatifWorkload) close()       {}

func (w *whatifWorkload) setup() error {
	w.spec = w.cfg.farmSpec(w.seed)
	w.want = nil
	// The warm-up farm (its Run warms a checkpoint too) takes the control
	// point and one point per rate, with fault seeds that do not depend on
	// the benchmark seed: the measured farms' cost does, set-up's should
	// not.
	warm := w.spec
	warm.Points = []*wire.FaultSpec{nil}
	for r, rate := range w.cfg.Rates {
		warm.Points = append(warm.Points, &wire.FaultSpec{N: w.cfg.N, LinkRate: rate, Seed: derive(0, streamWhatifFault, uint64(r))})
	}
	_, err := sweepfarm.Run(warm, sweepfarm.Options{Workers: parallelism})
	return err
}

func (w *whatifWorkload) measure(until time.Time, tr *tracer) *sample {
	return serialLoop(until, tr, func(i int, tr *tracer) unitOutcome {
		out, _ := w.farm(i, tr, 0)
		return out
	})
}

// farm runs the whole sweep once and checks it: every point conserves
// packets and the report's encoding hashes the same as the first farm's.
func (w *whatifWorkload) farm(i int, tr *tracer, parent int) (unitOutcome, *sweepfarm.Report) {
	total := len(w.spec.Points)
	id := tr.begin("sweepfarm.farm", parent, i)
	rep, err := sweepfarm.Run(w.spec, sweepfarm.Options{Workers: parallelism})
	tr.end(id)
	if err != nil {
		return unitOutcome{items: total, failed: total, why: "whatif: " + err.Error()}, nil
	}
	bad := total - len(rep.Points)
	why := ""
	for _, p := range rep.Points {
		if err := p.Result.CheckConservation(); err != nil {
			bad++
			why = fmt.Sprintf("whatif: point %d: %v", p.Index, err)
		}
	}
	enc, err := rep.Encode()
	if err != nil {
		return unitOutcome{items: total, failed: total, why: "whatif: encoding the report: " + err.Error()}, rep
	}
	sum := sha256.Sum256(enc)
	switch {
	case w.want == nil:
		w.want = sum[:]
	case !bytes.Equal(w.want, sum[:]):
		return unitOutcome{items: total, failed: total, why: fmt.Sprintf("whatif: farm %d report hash %x differs from the first farm's %x", i, sum, w.want)}, rep
	}
	return unitOutcome{items: total, failed: bad, why: why}, rep
}
