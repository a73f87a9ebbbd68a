package main

import (
	"fmt"
	"time"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/load"
)

type lintConfig struct {
	// Patterns is the package set of one lint pass: make lint-schema's
	// set, not ./..., whose passes take five times as long.
	Patterns []string
}

// lintWorkload loads the package set from source and runs bflint's
// bound analyzers on each package, expecting no findings. Loading shells
// out to `go list`, so the working directory must be the module root.
type lintWorkload struct {
	cfg lintConfig
	// packages is the package count of the last pass.
	packages int
}

func (w *lintWorkload) name() string { return "lint" }
func (w *lintWorkload) close()       {}

// setup loads internal/routing, the smallest package of the set.
func (w *lintWorkload) setup() error {
	_, err := load.New().Load("./internal/routing")
	return err
}

func (w *lintWorkload) measure(until time.Time, tr *tracer) *sample {
	return serialLoop(until, tr, func(i int, tr *tracer) unitOutcome { return w.pass(i, tr, 0) })
}

// pass is one lint run over the package set with a fresh loader, as a
// bflint invocation starts from nothing.
func (w *lintWorkload) pass(i int, tr *tracer, parent int) unitOutcome {
	id := tr.begin("lint.pass", parent, i)
	defer tr.end(id)
	ld := load.New()
	lid := tr.begin("lint.load", id, i)
	pkgs, err := ld.Load(w.cfg.Patterns...)
	tr.end(lid)
	if err != nil {
		return unitOutcome{items: 1, failed: 1, why: "lint: " + err.Error()}
	}
	w.packages = len(pkgs)
	findings := 0
	first := ""
	for _, p := range pkgs {
		aid := tr.begin("lint.analyze", id, i)
		diags, err := lint.Run(p.Path, p.Fset, p.Files, p.Types, p.Info)
		tr.end(aid)
		if err != nil {
			return unitOutcome{items: 1, failed: 1, why: fmt.Sprintf("lint: %s: %v", p.Path, err)}
		}
		for _, d := range diags {
			if first == "" {
				first = fmt.Sprintf("%s: %s", p.Fset.Position(d.Pos), d.Message)
			}
			findings++
		}
	}
	if len(pkgs) != len(w.cfg.Patterns) {
		return unitOutcome{items: 1, failed: 1, why: fmt.Sprintf("lint: loaded %d packages for %d patterns", len(pkgs), len(w.cfg.Patterns))}
	}
	if findings > 0 {
		return unitOutcome{items: 1, failed: 1, why: fmt.Sprintf("lint: %d findings, first %s", findings, first)}
	}
	return unitOutcome{items: 1}
}
