package faults

import (
	"fmt"
	"sort"

	"bfvlsi/internal/butterfly"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/thompson"
	"bfvlsi/internal/workpool"
)

// Point is one fault level of a link-fault degradation sweep.
type Point struct {
	// Rate is the independent per-link fault probability of this level.
	Rate float64
	// DeadLinks is the number of directed links actually killed.
	DeadLinks int
	Result    *routing.Result
	Err       error
}

// Sweep measures throughput and latency degradation as the link fault
// rate grows: one simulation per rate, each with its own permanent
// random link faults drawn from a seed derived deterministically from
// base.Seed and the level index, so the sweep is reproducible regardless
// of scheduling. Levels run concurrently (one goroutine per CPU, capped).
//
// base.Faults must be nil (each level builds its own plan). If base.TTL
// is 0, faulted levels get DefaultTTL(base.N) so trapped packets are
// dropped and accounted rather than pooling in Backlog; a zero-rate level
// keeps TTL 0 and therefore reproduces the fault-free baseline exactly.
func Sweep(base routing.Params, rates []float64) []Point {
	out := make([]Point, len(rates))
	run := func(i int) {
		pt := &out[i]
		pt.Rate = rates[i]
		plan, err := NewPlan(base.N)
		if err != nil {
			pt.Err = err
			return
		}
		dead, err := plan.AddRandomLinkFaults(rates[i], base.Seed+int64(i)*1_000_003+1)
		if err != nil {
			pt.Err = err
			return
		}
		pt.DeadLinks = dead
		p := base
		p.Faults = plan
		if p.TTL == 0 && dead > 0 {
			p.TTL = DefaultTTL(base.N)
		}
		pt.Result, pt.Err = routing.Simulate(p)
		if pt.Err == nil {
			pt.Err = pt.Result.CheckConservation()
		}
		if pt.Err != nil {
			// Fail loudly with the cell's coordinates: a sweep must never
			// hand an inconsistent row downstream without saying which.
			pt.Err = fmt.Errorf("faults: sweep rate %g (%d dead links): %w", pt.Rate, pt.DeadLinks, pt.Err)
		}
	}
	workpool.ForEach(len(rates), run)
	return out
}

// Scheme is a named module assignment of the wrapped butterfly - one
// packaging variant viewed as a set of failure domains.
type Scheme struct {
	Name string
	// ModuleOf maps wrapped node id -> module (see
	// packaging.RoutingModuleOf).
	ModuleOf   []int
	NumModules int
}

// PartitionScheme wraps a packaging partition into a Scheme. Pass the
// swap-butterfly the partition was built from, or nil for plain-butterfly
// partitions (NaiveRowPartition). Module ids are re-densified over the
// wrapped network: a module that owns only stage-n nodes (possible for
// the last nucleus segment) vanishes under the wrap and is not a failure
// domain of the simulated machine.
func PartitionScheme(name string, part *packaging.Partition, sb *isn.SwapButterfly) (Scheme, error) {
	moduleOf, err := packaging.RoutingModuleOf(part, sb)
	if err != nil {
		return Scheme{}, err
	}
	present := make(map[int]bool)
	for _, m := range moduleOf {
		present[m] = true
	}
	ids := make([]int, 0, len(present))
	for m := range present {
		ids = append(ids, m)
	}
	sort.Ints(ids)
	remap := make(map[int]int, len(ids))
	for dense, m := range ids {
		remap[m] = dense
	}
	dense := make([]int, len(moduleOf))
	for i, m := range moduleOf {
		dense[i] = remap[m]
	}
	return Scheme{Name: name, ModuleOf: dense, NumModules: len(ids)}, nil
}

// StandardSchemes builds the three packagings the paper compares, as
// failure-domain schemes for dimension n: the Section 2.3 row partition
// (variant a) and nucleus partition (variant b, Theorem 2.1) of the
// paper's group spec for n, and the naive consecutive-row baseline with
// the same 2^k1 rows per module.
func StandardSchemes(n int) ([]Scheme, error) {
	spec := thompson.SpecForDim(n)
	sb := isn.Transform(spec)
	k1 := spec.GroupWidth(1)
	row, err := PartitionScheme("row", packaging.RowPartition(sb), sb)
	if err != nil {
		return nil, err
	}
	nucleus, err := PartitionScheme("nucleus", packaging.NucleusPartition(sb), sb)
	if err != nil {
		return nil, err
	}
	naive, err := PartitionScheme("naive", packaging.NaiveRowPartition(butterfly.New(n), 1<<uint(k1)), nil)
	if err != nil {
		return nil, err
	}
	return []Scheme{row, nucleus, naive}, nil
}

// SchemePoint is one (scheme, kill count) cell of a module-kill sweep.
type SchemePoint struct {
	Scheme string
	// Killed is the number of modules failed; DeadNodes the resulting
	// dead node count and DeadNodeFrac its fraction of the network.
	Killed       int
	DeadNodes    int
	DeadNodeFrac float64
	Result       *routing.Result
	Err          error
}

// ModuleKillSweep fails k whole modules (k ranging over kills) under each
// scheme and measures the degradation: module choice is a deterministic
// seeded draw per (scheme, k) cell, faults are permanent from cycle 0,
// and base.TTL of 0 is replaced by DefaultTTL for the faulted cells (as
// in Sweep). Cells run concurrently; results are ordered scheme-major.
//
// This is the packaging comparison behind the tentpole claim: the
// Theorem 2.1 nucleus modules are small failure domains with few boundary
// links, so killing the same number of modules removes a smaller slice of
// the machine - and the sweep shows the gentler throughput decay.
func ModuleKillSweep(base routing.Params, schemes []Scheme, kills []int) []SchemePoint {
	out := make([]SchemePoint, len(schemes)*len(kills))
	run := func(idx int) {
		si, ki := idx/len(kills), idx%len(kills)
		sc := schemes[si]
		pt := &out[idx]
		pt.Scheme = sc.Name
		pt.Killed = kills[ki]
		if pt.Killed < 0 || pt.Killed > sc.NumModules {
			pt.Err = fmt.Errorf("faults: cannot kill %d of %d modules", pt.Killed, sc.NumModules)
			return
		}
		plan, err := NewPlan(base.N)
		if err != nil {
			pt.Err = err
			return
		}
		// Same per-k seed across schemes: the "random draw" of which
		// modules die is shared, the schemes differ only in what a
		// module is.
		for _, m := range PickModules(sc.NumModules, pt.Killed, base.Seed+int64(ki)*2_000_003+7) {
			killed, err := plan.AddModuleFault(sc.ModuleOf, m, 0, 0)
			if err != nil {
				pt.Err = err
				return
			}
			pt.DeadNodes += killed
		}
		pt.DeadNodeFrac = float64(pt.DeadNodes) / float64(plan.Nodes())
		p := base
		p.Faults = plan
		if p.TTL == 0 && pt.Killed > 0 {
			p.TTL = DefaultTTL(base.N)
		}
		pt.Result, pt.Err = routing.Simulate(p)
		if pt.Err == nil {
			pt.Err = pt.Result.CheckConservation()
		}
		if pt.Err != nil {
			pt.Err = fmt.Errorf("faults: scheme %s kills %d: %w", pt.Scheme, pt.Killed, pt.Err)
		}
	}
	workpool.ForEach(len(out), run)
	return out
}

// PickModules draws k distinct module ids uniformly from [0, numModules)
// by a seeded permutation - the draw ModuleKillSweep uses per kill count.
func PickModules(numModules, k int, seed int64) []int {
	return newRand(seed).Perm(numModules)[:k]
}
