// Command bench is the repository's benchmark: five commit-path workloads
// over the otpdb facade and a hand-assembled replica stack, end-to-end
// metrics from untraced runs and a per-layer stage table from traced ones.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	bench --workload lan_sync --seed 7 --seconds 15 --trace 0
//
// The whole suite, each workload in its own child process:
//
//	bench -seed 7            # end-to-end and per-layer tables
//	bench -seed 7 -aa        # every workload twice, compared against the bounds
//	bench -seed 7 -traced    # per-layer pass only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs the suite")
		seed    = flag.Int64("seed", 1, "seed of the workload generator and of memnet's jitter")
		seconds = flag.Int("seconds", 15, "measured time per run: one cluster life per second")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		aa      = flag.Bool("aa", false, "suite: run every workload twice back to back on the same build and seed and check the bounds")
		traced  = flag.Bool("traced", false, "suite: per-layer pass only")
		noCells = flag.Bool("no-cells", false, "leave the layer cells out of a -trace 1 run; the suite runs them once and passes this to its children")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Three replicas and their clients share the cores; more than four
	// would measure a machine nobody compares against.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	p := defaultParams(*seed, *seconds)
	var err error
	if *name != "" {
		if *noCells {
			p.cells = nil
		}
		err = single(*name, p, *trace == 1)
	} else {
		err = suite(p, *aa, *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// single runs one workload and prints the contract's result line.
func single(name string, p params, trace bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, p, trace)
	if err != nil {
		return err
	}
	printResult(os.Stderr, res)
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d violations", name, res.Failed, res.Attempted, len(res.Violations))
	}
	return nil
}
