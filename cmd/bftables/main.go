// Command bftables regenerates every experiment table and figure of the
// paper reproduction (see DESIGN.md for the experiment index E1-E18 and
// EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Usage:
//
//	bftables [-quick] [experiment ...]
//
// With no arguments every experiment runs in order. Experiment names are
// e1..e20. -quick shrinks the slowest sweeps for smoke runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bfvlsi/internal/experiments"
)

var quick = flag.Bool("quick", false, "shrink slow sweeps for a fast smoke run")

// errNoMatch reports experiment names that select nothing.
var errNoMatch = errors.New("no experiment matched")

func main() {
	flag.Parse()
	if err := run(os.Stdout, *quick, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errNoMatch) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run writes the selected experiments (all of them when names is
// empty) to w, in order.
func run(w io.Writer, quick bool, names []string) error {
	selected := func(name string) bool {
		if len(names) == 0 {
			return true
		}
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	cfg := &experiments.Config{W: w, Quick: quick}
	ran := 0
	for _, ex := range experiments.All() {
		if !selected(ex.Name) {
			continue
		}
		ran++
		if _, err := fmt.Fprintf(w, "==== %s: %s ====\n", ex.Name, ex.Desc); err != nil {
			return err
		}
		if err := ex.Run(cfg); err != nil {
			return fmt.Errorf("%s failed: %v", ex.Name, err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if ran == 0 {
		return fmt.Errorf("%w %v (have e1..e20)", errNoMatch, names)
	}
	return nil
}
