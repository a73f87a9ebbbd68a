package main

import (
	"fmt"
	"time"
)

// config sizes every workload and the layer suite. fullConfig is what
// the benchmark runs; the smoke test shrinks it.
type config struct {
	// SetupReps is how many times an end-to-end run sets its workload
	// up; setup_s is the median, and the last set-up is measured.
	SetupReps int
	// TraceDir receives the spans of traced runs.
	TraceDir string
	Tables   tablesConfig
	Whatif   whatifConfig
	Serve    serveConfig
	Lint     lintConfig
	Layers   layersConfig
}

func fullConfig() config {
	return config{
		SetupReps: 5,
		TraceDir:  ".bench_build/trace",
		Tables:    tablesConfig{Golden: "tables_output.txt"},
		Whatif: whatifConfig{
			N: 6, Warmup: 200, Cycles: 600,
			Rates: []float64{0.01, 0.02, 0.05}, SeedsPerRate: 6,
		},
		Serve: serveConfig{Round: 3000, Healthz: 200},
		Lint: lintConfig{
			Patterns: []string{"./internal/wire", "./internal/snapshot", "./internal/routing",
				"./internal/reliable", "./internal/adaptive"},
		},
		Layers: layersConfig{
			RouteN: 8, RouteWarmup: 200, RouteCycles: 800,
			ThompsonSpec: []int{3, 3, 3}, PackagingN: 9, HypercubeN: 10,
			BuilderReps: 3, SnapshotReps: 20, WireReps: 20000,
		},
	}
}

// parallelism is the number of farm workers and serve clients: nproc
// on the 2-vCPU machine the benchmark was sized on.
const parallelism = 2

// workload is one benchmark workload.
type workload interface {
	name() string
	// setup builds fresh state and runs the untimed warm-up, replacing
	// any earlier set-up.
	setup() error
	// measure runs timed units until the deadline (at least one). With a
	// tracer, every other unit is traced.
	measure(until time.Time, tr *tracer) *sample
	// close releases what setup acquired.
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"tables", "whatif", "lint"}

func newWorkload(cfg config, name string, seed int64) (workload, error) {
	switch name {
	case "tables":
		return &tablesWorkload{cfg: cfg.Tables}, nil
	case "whatif":
		return &whatifWorkload{cfg: cfg.Whatif, seed: seed}, nil
	case "lint":
		return &lintWorkload{cfg: cfg.Lint}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// derive maps (seed, stream, index) to an independent positive seed
// with the splitmix64 finaliser, so every generated input is a pure
// function of the benchmark seed.
func derive(seed int64, stream, index uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream*0x100000001+index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}
