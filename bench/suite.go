package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric. The end-to-end ones are
// BENCHMARK.json's end_to_end list, the rest its per_layer list; the smoke
// test holds the two files to each other.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	endToEnd   bool
	// cell marks a layer cell's metric: it does not depend on the workload,
	// and the suite measures it once.
	cell bool
	// bound is the share by which two runs of the same code may differ
	// before -aa complains (and, for end-to-end metrics, by which a later
	// change may worsen the metric); 0 = not compared.
	bound float64
	// on lists the workloads -aa compares the metric on; nil = all.
	on []string
}

var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", endToEnd: true, bound: 0.25},
	{name: "commits_per_s", unit: "1/s", higher: true, endToEnd: true, bound: 0.25},
	{name: "commit_p50_us", unit: "us", endToEnd: true, bound: 0.25},

	// The commit latency's tail. It is not an end-to-end metric with a
	// bound because on this shared host it does not keep to one: two sets
	// of ten runs of the same code spread 15 – 34 % of the median.
	{name: "otpdb.commit_p95_us", unit: "us"},

	// Measured like end-to-end metrics but meaningful on one workload
	// only, which BENCHMARK.json's schema cannot say; they ride in the
	// per-layer list and -aa holds them to a bound on their workload.
	{name: "db.query_p50_us", unit: "us", bound: 0.25, on: []string{"lan_saturated"}},
	{name: "db.queries_per_s", unit: "1/s", higher: true, bound: 0.05, on: []string{"lan_saturated"}},
	{name: "wal.recover_records_per_s", unit: "1/s", higher: true, bound: 0.25, on: []string{"wal_restart"}},

	{name: "otpdb.call_overhead_us", unit: "us"},
	{name: "otpdb.cpu_us_per_commit", unit: "us"},
	{name: "otpdb.allocs_per_commit", unit: "count"},
	{name: "otpdb.alloc_bytes_per_commit", unit: "B"},
	{name: "otpdb.live_heap_mb", unit: "MiB"},
	{name: "otpdb.peak_rss_mb", unit: "MiB"},
	{name: "otpdb.trace_overhead_share", unit: "ratio"},
	{name: "otpdb.trace_residual_share", unit: "ratio"},
	{name: "db.submit_us", unit: "us"},
	{name: "db.execute_us", unit: "us"},
	{name: "db.commit_after_def_us", unit: "us"},
	{name: "abcast.broadcast_call_us", unit: "us"},
	{name: "abcast.opt_deliver_us", unit: "us"},
	{name: "abcast.opt_to_def_us", unit: "us"},
	{name: "abcast.ids_per_stage", unit: "count", higher: true},
	{name: "abcast.fast_stage_share", unit: "ratio", higher: true},
	{name: "consensus.msgs_per_stage", unit: "count"},
	{name: "consensus.decide_us", unit: "us", cell: true},
	{name: "consensus.decide_allocs", unit: "count", cell: true},
	{name: "transport.msgs_per_commit", unit: "count"},
	{name: "transport.send_call_us", unit: "us"},
	{name: "transport.mem_rtt_us", unit: "us", cell: true},
	{name: "transport.tcp_rtt_us", unit: "us", cell: true},
	{name: "transport.tcp_msgs_per_s", unit: "1/s", higher: true, cell: true},
	{name: "transport.tcp_allocs_per_msg", unit: "count", cell: true},
	{name: "otp.queue_wait_us", unit: "us"},
	{name: "otp.overlap_ratio", unit: "ratio"},
	{name: "otp.schedule_us", unit: "us", cell: true},
	{name: "otp.schedule_allocs", unit: "count", cell: true},
	{name: "storage.commit_us", unit: "us", cell: true},
	{name: "storage.commit_allocs", unit: "count", cell: true},
	{name: "storage.snapshot_read_ns", unit: "ns", cell: true},
	{name: "wal.append_us", unit: "us", cell: true},
	{name: "wal.bytes_per_commit", unit: "B"},
}

func isEndToEnd(name string) bool {
	for _, d := range metricDefs {
		if d.name == name {
			return d.endToEnd
		}
	}
	return false
}

// printMetrics lists metrics in declaration order.
func printMetrics(w io.Writer, ms map[string]metric) {
	for _, d := range metricDefs {
		if m, ok := ms[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

func printResult(w io.Writer, res *result) {
	kind := "end-to-end (untraced)"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s  %s  seed %d  %d attempted, %d failed  %.1f s\n",
		res.Workload, kind, res.Record.Seed, res.Attempted, res.Failed, res.Record.WallS)
	printMetrics(w, res.Metrics)
	if !res.Traced {
		for _, d := range metricDefs {
			if s, ok := res.Lives[d.name]; ok {
				fmt.Fprintf(w, "  %-32s median %.4f  q1 %.4f  q3 %.4f  over %d\n", d.name+" lives", s.Median, s.Q1, s.Q3, len(s.Lives))
			}
		}
	}
	for _, name := range []string{"best_life", "commit_p99_us", "commit_max_us", "query_generator_max_late_us", "aborts"} {
		if v, ok := res.Diagnostics[name]; ok {
			fmt.Fprintf(w, "  %-32s %14.1f (diagnostic)\n", name, v)
		}
	}
	if t := res.Stages; t != nil {
		fmt.Fprintf(w, "  stage table over %d traced transactions (medians, us):\n", t.Txns)
		fmt.Fprintf(w, "    submit %.1f + opt_deliver %.1f + max(queue_wait %.1f + execute %.1f, opt_to_def %.1f) + commit_after_def %.1f\n",
			t.Submit, t.OptDeliver, t.QueueWait, t.Execute, t.OptToDef, t.CommitAfterDef)
		fmt.Fprintf(w, "    blocking path %.1f vs latency %.1f: residual %.1f (%.3f of latency)\n",
			t.BlockingPathP50, t.LatencyP50, t.ResidualP50, t.ResidualShare)
	}
	for _, v := range res.Violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}

// resultLine is the last line a single-workload run prints: exactly these
// keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childResult is a child's result line plus how long the child took.
type childResult struct {
	resultLine
	WallS float64 `json:"wall_s"`
}

// runChild re-executes this binary for one workload, so that heap and GC
// state never leak from one workload into the next.
func runChild(w string, p params, trace int) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.Itoa(p.lives), "-trace", strconv.Itoa(trace), "-no-cells")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res.resultLine); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v; run: %v)", w, err, runErr)
	}
	res.WallS = time.Since(start).Seconds()
	if runErr != nil {
		return &res, fmt.Errorf("%s: %w", w, runErr)
	}
	return &res, nil
}

// suiteRun is one pass over every workload.
type suiteRun struct {
	EndToEnd map[string]*childResult `json:"end_to_end,omitempty"`
	Layers   map[string]*childResult `json:"per_layer,omitempty"`
}

// runSuite runs every workload `sides` times. The sides of one workload
// run back to back — the box's speed moves by a tenth within minutes, and
// an A/A comparison should compare the code, not the quarter of an hour.
func runSuite(p params, tracedOnly bool, sides int) ([]*suiteRun, error) {
	runs := make([]*suiteRun, sides)
	for i := range runs {
		runs[i] = &suiteRun{EndToEnd: map[string]*childResult{}, Layers: map[string]*childResult{}}
	}
	var failed []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 0 && tracedOnly {
				continue
			}
			for _, run := range runs {
				res, err := runChild(w.name, p, trace)
				if err != nil {
					failed = append(failed, err.Error())
				}
				if res == nil {
					continue
				}
				if trace == 0 {
					run.EndToEnd[w.name] = res
				} else {
					run.Layers[w.name] = res
				}
			}
		}
	}
	if len(failed) > 0 {
		return runs, fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return runs, nil
}

// value looks a metric up in whichever pass reports it.
func (r *suiteRun) value(d metricDef, w string) (float64, bool) {
	pass := r.Layers
	if d.endToEnd {
		pass = r.EndToEnd
	}
	if res := pass[w]; res != nil {
		m, ok := res.Metrics[d.name]
		return m.Value, ok
	}
	return 0, false
}

// compare prints the A/A table and returns the (metric, workload) pairs on
// which the two runs differ by more than the bound, in either direction:
// the code is the same, so a better second run is as much noise as a worse
// one.
func compare(w io.Writer, a, b *suiteRun) []string {
	var out []string
	fmt.Fprintf(w, "\nA/A: same build, same seed, each workload run twice back to back\n%-28s %-16s %14s %14s %9s %7s\n",
		"metric", "workload", "first", "second", "differs", "bound")
	for _, d := range metricDefs {
		if d.bound == 0 {
			continue
		}
		for _, wl := range workloads {
			if d.on != nil && !slices.Contains(d.on, wl.name) {
				continue
			}
			x, okA := a.value(d, wl.name)
			y, okB := b.value(d, wl.name)
			if !okA || !okB {
				out = append(out, fmt.Sprintf("%s @ %s: missing", d.name, wl.name))
				continue
			}
			diff := (y - x) / x
			flag := ""
			// Set-up takes tens of milliseconds; below 50 ms a relative
			// bound measures the scheduler, not the set-up.
			if math.Abs(diff) > d.bound && !(d.name == "setup_s" && math.Abs(y-x) <= 0.05) {
				flag = "  EXCEEDED"
				out = append(out, fmt.Sprintf("%s @ %s: %.4g → %.4g (%+.1f %%, bound %.0f %%)", d.name, wl.name, x, y, 100*diff, 100*d.bound))
			}
			fmt.Fprintf(w, "%-28s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", d.name, wl.name, x, y, 100*diff, 100*d.bound, flag)
		}
	}
	return out
}

func printSuite(w io.Writer, run *suiteRun) {
	for _, pass := range []struct {
		title    string
		endToEnd bool
		res      map[string]*childResult
	}{{"end-to-end (untraced runs)", true, run.EndToEnd}, {"per-layer (traced runs)", false, run.Layers}} {
		if len(pass.res) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s\n%-32s %-6s", pass.title, "metric", "unit")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %15s", wl.name)
		}
		fmt.Fprintln(w)
		for _, d := range metricDefs {
			if d.endToEnd != pass.endToEnd || d.cell {
				continue
			}
			fmt.Fprintf(w, "%-32s %-6s", d.name, d.unit)
			for _, wl := range workloads {
				v, _ := run.value(d, wl.name)
				fmt.Fprintf(w, " %15.4f", v)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-32s %-6s", "attempted / failed", "")
		for _, wl := range workloads {
			cell := "-"
			if res := pass.res[wl.name]; res != nil {
				cell = fmt.Sprintf("%d / %d", res.Attempted, res.Failed)
			}
			fmt.Fprintf(w, " %15s", cell)
		}
		fmt.Fprintln(w)
	}
}

// suite runs the layer cells once, then every workload in a child process
// (twice for A/A), and writes the summary.
// This benchmark defines the baseline; it claims nothing, hence the
// summary's closing "claim": null.
func suite(p params, aa, tracedOnly bool) error {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(p.outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rec := newRunRecord(p.seed)
	started := time.Now()
	summary := struct {
		Record   runRecord         `json:"record"`
		Cells    map[string]metric `json:"cells"`
		Runs     []*suiteRun       `json:"runs"`
		Exceeded []string          `json:"aa_exceeded,omitempty"`
		Claim    any               `json:"claim"`
	}{}
	if summary.Cells, err = runCells(*p.cells, p.seed, scratch); err != nil {
		return err
	}
	fmt.Println("layer cells (once per invocation)")
	printMetrics(os.Stdout, summary.Cells)
	sides := 1
	if aa {
		sides = 2
	}
	runs, firstErr := runSuite(p, tracedOnly, sides)
	summary.Runs = runs
	for _, run := range runs {
		printSuite(os.Stdout, run)
	}
	if aa && firstErr == nil {
		summary.Exceeded = compare(os.Stdout, summary.Runs[0], summary.Runs[1])
		if len(summary.Exceeded) > 0 {
			firstErr = fmt.Errorf("A/A runs differ by more than the bound: %s", strings.Join(summary.Exceeded, "; "))
		}
	}
	rec.WallS = time.Since(started).Seconds()
	summary.Record = rec
	if err := writeJSON(filepath.Join(p.outDir, "summary.json"), summary); err != nil {
		return err
	}
	return firstErr
}
