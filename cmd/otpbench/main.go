// Command otpbench regenerates the paper's figure and the quantitative
// claims of Kemme et al. (ICDCS'99) as plain-text tables. The experiments
// are the entries of experiments.Index (DESIGN.md §4); `otpbench -h`
// lists them.
//
// Usage:
//
//	otpbench [-quick] [experiment ...]
//	otpbench [-quick] chaos [-seed S] [-v] [-dump dir] [scenario ...]
//
// With no arguments every experiment runs once, in index order. An
// experiment whose verdict is a failure — a chaos scenario violating an
// invariant, the trace ring over its overhead budget — prints its table
// and makes otpbench exit nonzero.
//
// chaos is the one target with arguments of its own, and everything
// after it belongs to it: -seed (identical seeds replay identical fault
// schedules), -v (stream progress and each fault schedule), -dump
// (directory receiving a flight-recorder dump per failed scenario —
// what the nightly chaos job uploads as its failure artifact) and an
// optional list of scenario names replacing the shipped matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"otpdb/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "smaller parameter sweeps (seconds instead of minutes)")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: otpbench [-quick] [experiment ...]")
		fmt.Fprintln(w, "       otpbench [-quick] chaos [-seed S] [-v] [-dump dir] [scenario ...]")
		flag.PrintDefaults()
		fmt.Fprintln(w, "experiments (none named = all of them, in this order):")
		for _, e := range experiments.Index {
			fmt.Fprintf(w, "  %-14s %-4s %s\n", e.Name, e.ID, e.Claim)
		}
	}
	flag.Parse()
	if err := run(flag.Args(), *quick); err != nil {
		fmt.Fprintln(os.Stderr, "otpbench:", err)
		os.Exit(1)
	}
}

func run(targets []string, quick bool) error {
	todo := experiments.Index
	if len(targets) > 0 {
		todo = nil
		for i, target := range targets {
			e, err := find(target)
			if err != nil {
				return err
			}
			if target == "chaos" {
				// The one target with arguments: the rest of the line.
				if e.Run, err = chaosRun(targets[i+1:]); err != nil {
					return err
				}
				todo = append(todo, e)
				break
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		// A table returned beside an error is the evidence for it.
		t, err := e.Run(quick)
		if t.Title != "" {
			t.Render(os.Stdout)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

func find(target string) (experiments.Experiment, error) {
	var names []string
	for _, e := range experiments.Index {
		if e.Name == target {
			return e, nil
		}
		names = append(names, e.Name)
	}
	return experiments.Experiment{}, fmt.Errorf("unknown experiment %q (have: %s)", target, strings.Join(names, ", "))
}

// chaosRun is the chaos entry's Run with its own arguments parsed.
func chaosRun(args []string) (func(quick bool) (experiments.Table, error), error) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "fault-schedule seed (identical seeds replay identical schedules)")
	verbose := fs.Bool("v", false, "stream scenario progress and print each fault schedule")
	dumpDir := fs.String("dump", "", "directory receiving a flight-recorder dump per failed scenario")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return func(quick bool) (experiments.Table, error) {
		p := experiments.ChaosBenchParams{Seed: *seed, Quick: quick, DumpDir: *dumpDir}
		if *verbose {
			p.Out = os.Stdout
		}
		return experiments.Chaos(p, fs.Args())
	}, nil
}
