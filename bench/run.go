package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"otpdb"
)

// params sizes one run. The defaults are what BENCHMARK.json's command
// uses; the smoke test shrinks them.
type params struct {
	seed   int64
	lives  int           // clusters an untraced run measures, one after the other
	window time.Duration // timed interval of one life
	warmup time.Duration // per life
	// cells are the layer cells' operation counts; nil leaves the cells out
	// of a traced run (the suite runs them once, not once per workload).
	cells  *cellOps
	outDir string // result files and scratch space
}

func defaultParams(seed int64, seconds int) params {
	return params{seed: seed, lives: seconds, window: lifeWindow, warmup: lifeWarmup,
		cells: &fullCells, outDir: filepath.Join("bench", "out")}
}

// result is one workload's outcome, as written to the output file. The
// last line of standard output carries Correct, Attempted, Failed and
// Metrics only.
type result struct {
	Record     runRecord `json:"record"`
	Workload   string    `json:"workload"`
	Traced     bool      `json:"traced"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Violations []string  `json:"violations,omitempty"`
	// GateChecked counts the values the correctness gate compared.
	GateChecked int               `json:"gate_checked"`
	Metrics     map[string]metric `json:"metrics"`
	// Lives shows, for every end-to-end metric, each life's value beside
	// the reported one.
	Lives map[string]spread `json:"lives,omitempty"`
	// Diagnostics do not repeat well enough on a shared box to carry a
	// bound: tail latencies, generator lateness.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Stages      *stageTable        `json:"stage_table,omitempty"`
}

// live is a started system with the bookkeeping the gate needs.
type live struct {
	sys  system
	dir  string         // the logs' root ("" when in-memory)
	opts []otpdb.Option // facade only, for the reopen
	want tally          // commits acknowledged so far, per key
}

// setup builds, registers, seeds and starts w's system and commits one
// transaction through it: everything a user waits for before the database
// answers. tr selects the traced stack.
func setup(w *workload, p params, scratch string, tr *tracer) (*live, time.Duration, error) {
	start := time.Now()
	l := &live{}
	var err error
	if w.wal {
		if l.dir, err = os.MkdirTemp(scratch, "data-"); err != nil {
			return nil, 0, err
		}
	}
	if w.tcp || tr != nil {
		l.sys, err = startStack(w, p.seed, l.dir, tr)
	} else {
		l.opts = facadeOptions(w, p.seed, l.dir)
		l.sys, err = startFacade(l.opts)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	var s slot
	newGenerator(p.seed, 99).next(&s.o)
	s.start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), ackTimeout)
	defer cancel()
	if _, err := l.sys.exec(ctx, 0, &s); err != nil {
		l.sys.stop()
		return nil, 0, fmt.Errorf("set-up: first commit: %w", err)
	}
	l.want[s.o.class][s.o.key]++
	return l, time.Since(start), nil
}

// sortedUS merges nanosecond samples into one ascending slice of
// microseconds.
func sortedUS[T uint32 | int32](parts ...[]T) []float64 {
	var out []float64
	for _, p := range parts {
		for _, v := range p {
			out = append(out, float64(v)/1e3)
		}
	}
	slices.Sort(out)
	return out
}

// latencyStats are one window's latency figures, in microseconds.
type latencyStats struct{ rate, p50, p95, p99, max float64 }

// latencyOf reduces one window's samples. The rate is taken between the
// first and the last acknowledgement inside the window rather than over the
// window's nominal length: n acknowledgements bound n−1 intervals, and a
// count over exactly one second would make commits_per_s a whole number
// (213 on wan_jitter, run after run).
func latencyOf(m *measurement) latencyStats {
	var parts [][]uint32
	first, last := m.end, m.start
	for _, c := range m.clients {
		parts = append(parts, c.latency)
		if len(c.latency) > 0 {
			if c.first.Before(first) {
				first = c.first
			}
			if c.last.After(last) {
				last = c.last
			}
		}
	}
	lat := sortedUS(parts...)
	rate := float64(len(lat)) / m.end.Sub(m.start).Seconds()
	if len(lat) > 1 && last.After(first) {
		rate = float64(len(lat)-1) / last.Sub(first).Seconds()
	}
	return latencyStats{rate: rate,
		p50: quantile(lat, 0.50), p95: quantile(lat, 0.95), p99: quantile(lat, 0.99), max: quantile(lat, 1)}
}

// report files one metric: value is what the run reports, every life's
// value goes along in the output file.
func (res *result) report(name, unit string, value float64, perLife []float64) {
	res.Lives[name] = spreadOf(perLife)
	res.Metrics[name] = metric{value, unit}
}

// bestLife picks the life a run reports: the one that committed fastest.
// Whatever else runs on the shared host only ever slows a life down, so the
// fastest is the one that says most about the program, and between runs of
// the same code it moves a third as much as the median over lives does
// (README, "Why the best life"). Latencies are that same life's, not
// the lowest seen: in a retransmission storm the few transactions that get
// through are quick, and a storm life is never the fastest.
func bestLife(rate []float64) int {
	best := 0
	for i, r := range rate {
		if r > rate[best] {
			best = i
		}
	}
	return best
}

// tallyClients folds one life's counts and complaints into the result
// and its acknowledged commits into what the gate will expect.
func tallyClients(m *measurement, l *live, res *result) {
	for _, c := range m.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Violations = append(res.Violations, c.errs...)
		l.want.add(&c.acked)
	}
	if q := m.queries; q != nil {
		res.Attempted += q.attempted
		res.Failed += q.failed
		res.Violations = append(res.Violations, q.errs...)
		res.Diagnostics["query_generator_max_late_us"] = max(res.Diagnostics["query_generator_max_late_us"], usec(q.maxLate))
	}
}

// check runs the correctness gate on a drained system.
func check(l *live, res *result) {
	bad, checked := gate(l.sys, &l.want)
	res.Violations = append(res.Violations, bad...)
	res.GateChecked += checked
	res.Diagnostics["aborts"] += float64(l.sys.aborts())
}

// restart stops a logging system and recovers its directory `reopens`
// times, returning WAL records replayed per second (median).
func restart(l *live, res *result) float64 {
	index, err := l.sys.lastIndex(0)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("last index before stop: %v", err))
	}
	digest, err := l.sys.digest(0)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("digest before stop: %v", err))
	}
	l.sys.stop()
	var rates []float64
	for i := 0; i < reopens; i++ {
		took, bad := reopen(l.opts, index, digest)
		res.Violations = append(res.Violations, bad...)
		if len(bad) > 0 {
			return 0
		}
		rates = append(rates, float64(index)/took.Seconds())
	}
	return median(rates)
}

// runUntraced is the end-to-end run of one workload: p.lives times set up,
// warm up, measure, check, stop; the end-to-end metrics are the best life's
// and the fastest set-up. It also takes the per-layer counters that cost
// nothing to take: whole-process costs divided by commits, and what the
// calling convention adds on top of the replica's own submit→commit time.
func runUntraced(w *workload, p params, scratch string, res *result) error {
	var setups, rate, p50, p95, p99, top, queryP50, queryRate []float64
	var overhead [][]int32
	var commits, cpu, mallocs, allocBytes, liveHeap, walBytes, recovered float64
	for life := 0; life < p.lives; life++ {
		l, took, err := setup(w, p, scratch, nil)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		m := measure(l.sys, w, p.seed, life, p.warmup, p.window)
		tallyClients(m, l, res)
		check(l, res)
		if w.wal {
			// The log also holds the warm-up's records, so divide by every
			// commit since set-up, not the window's.
			walBytes = float64(dirBytes(filepath.Join(l.dir, "site-0"))) / float64(l.want.total())
		}
		if w.wal && life == p.lives-1 {
			recovered = restart(l, res)
		} else {
			l.sys.stop()
		}

		ls := latencyOf(m)
		rate, p50, p95 = append(rate, ls.rate), append(p50, ls.p50), append(p95, ls.p95)
		p99, top = append(p99, ls.p99), append(top, ls.max)
		for _, c := range m.clients {
			overhead = append(overhead, c.overhead)
		}
		if q := m.queries; q != nil {
			queryP50 = append(queryP50, quantile(sortedUS(q.service), 0.5))
			queryRate = append(queryRate, float64(len(q.service))/m.end.Sub(m.start).Seconds())
		}
		commits += float64(m.commits())
		cpu += usec(m.cpu)
		mallocs += float64(m.mallocs)
		allocBytes += float64(m.allocBytes)
		liveHeap = max(liveHeap, float64(m.liveHeapBytes))
	}
	res.Attempted += p.lives // the set-ups' first commits
	best := bestLife(rate)
	res.report("setup_s", "s", slices.Min(setups), setups)
	res.report("commits_per_s", "1/s", rate[best], rate)
	res.report("commit_p50_us", "us", p50[best], p50)
	res.report("otpdb.commit_p95_us", "us", p95[best], p95)
	res.Diagnostics["best_life"] = float64(best)
	res.Diagnostics["commit_p99_us"] = p99[best]
	res.Diagnostics["commit_max_us"] = slices.Max(top)

	out := res.Metrics
	commits = max(commits, 1)
	out["otpdb.call_overhead_us"] = metric{quantile(sortedUS(overhead...), 0.5), "us"}
	out["otpdb.cpu_us_per_commit"] = metric{cpu / commits, "us"}
	out["otpdb.allocs_per_commit"] = metric{mallocs / commits, "count"}
	out["otpdb.alloc_bytes_per_commit"] = metric{allocBytes / commits, "B"}
	out["otpdb.live_heap_mb"] = metric{liveHeap / (1 << 20), "MiB"}
	out["otpdb.peak_rss_mb"] = metric{float64(peakRSSKiB()) / 1024, "MiB"}
	out["db.query_p50_us"] = metric{0, "us"}
	out["db.queries_per_s"] = metric{0, "1/s"}
	if len(queryP50) > 0 {
		res.report("db.query_p50_us", "us", queryP50[best], queryP50)
		res.report("db.queries_per_s", "1/s", queryRate[best], queryRate)
	}
	out["wal.bytes_per_commit"] = metric{walBytes, "B"}
	out["wal.recover_records_per_s"] = metric{recovered, "1/s"}
	return nil
}

// runTraced repeats the workload, as one window of length on one cluster, on
// the hand-assembled stack with the benchmark's decorators in place and
// reduces their observations to the per-layer metrics. untracedP50 is the
// same workload's commit_p50_us without them.
func runTraced(w *workload, p params, length time.Duration, scratch string, untracedP50 float64, res *result) error {
	tr := newTracer(w)
	l, _, err := setup(w, p, scratch, tr)
	if err != nil {
		return err
	}
	st := l.sys.(*stack)
	defer st.stop()
	m := measure(st, w, p.seed, p.lives, p.warmup, length)
	traced := latencyOf(m)
	tallyClients(m, l, res)
	check(l, res)

	tab, rows := tr.table(m.start, m.end, 20000)
	res.Stages = &tab
	out := res.Metrics
	out["otpdb.trace_residual_share"] = metric{tab.ResidualShare, "ratio"}
	out["db.submit_us"] = metric{tab.Submit, "us"}
	out["db.execute_us"] = metric{tab.Execute, "us"}
	out["db.commit_after_def_us"] = metric{tab.CommitAfterDef, "us"}
	out["abcast.broadcast_call_us"] = metric{tab.BroadcastCall, "us"}
	out["abcast.opt_deliver_us"] = metric{tab.OptDeliver, "us"}
	out["abcast.opt_to_def_us"] = metric{tab.OptToDef, "us"}
	out["otp.queue_wait_us"] = metric{tab.QueueWait, "us"}
	out["otp.overlap_ratio"] = metric{tab.Overlap, "ratio"}

	// Counters the program already keeps, summed over the three sites and
	// taken since the stack started, so numerator and denominator cover the
	// same transactions.
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var toDelivered, stages, fast, commits float64
	for i := range st.site {
		as := st.site[i].opt.Stats()
		toDelivered += float64(as.TODelivered)
		stages += float64(as.Stages)
		fast += float64(as.FastStages)
		commits += float64(st.site[i].rep.Manager().Stats().Commits)
	}
	out["otpdb.trace_overhead_share"] = metric{ratio(traced.p50-untracedP50, untracedP50), "ratio"}
	out["abcast.ids_per_stage"] = metric{ratio(toDelivered, stages), "count"}
	out["abcast.fast_stage_share"] = metric{ratio(fast, stages), "ratio"}
	// Every site sees every stage and every commit; the decorators count
	// messages at all sites, so the denominators are one site's.
	out["consensus.msgs_per_stage"] = metric{ratio(float64(tr.consMsgs.Load()), stages/sites), "count"}
	out["transport.msgs_per_commit"] = metric{ratio(float64(tr.msgs.Load()), commits/sites), "count"}
	out["transport.send_call_us"] = metric{ratio(usec(time.Duration(tr.sendNanos.Load())), float64(tr.sendCalls.Load())), "us"}

	return writeJSON(filepath.Join(p.outDir, "trace-"+w.name+".json"), map[string]any{
		"record": res.Record, "workload": w.name, "stage_table": tab,
		"traced_commits_per_s": traced.rate, "traced_commit_p50_us": traced.p50, "untraced_commit_p50_us": untracedP50,
		"stages": traceStages, "fields": traceFields, "clock": "ns since tracer start", "txns": rows,
	})
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload is one invocation of the benchmark command: one workload,
// one seed, traced or not. With trace set the measured time is split in
// three: an untraced pass of a third of the lives (which supplies the cheap
// counters and the baseline for the tracing overhead), the traced pass, and
// the layer cells unless p.cells is nil.
func runWorkload(w *workload, p params, trace bool) (*result, error) {
	started := time.Now()
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(p.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// The workload's own passes run on the workload's number of processors,
	// the cells, which are the same whatever the workload, on the process's.
	procs := runtime.GOMAXPROCS(0)
	if w.procs > 0 {
		runtime.GOMAXPROCS(min(w.procs, procs))
	}
	defer runtime.GOMAXPROCS(procs)
	res := &result{Record: newRunRecord(p.seed), Workload: w.name, Traced: trace,
		Metrics: map[string]metric{}, Lives: map[string]spread{}, Diagnostics: map[string]float64{}}
	tracedWindow := time.Duration(p.lives) * p.window / 3
	if trace {
		p.lives = max(p.lives/3, 1)
	}
	if err := runUntraced(w, p, scratch, res); err != nil {
		return nil, err
	}
	if trace {
		if err := runTraced(w, p, tracedWindow, scratch, res.Metrics["commit_p50_us"].Value, res); err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(procs)
		if p.cells != nil {
			cells, err := runCells(*p.cells, p.seed, scratch)
			if err != nil {
				return nil, err
			}
			for name, v := range cells {
				res.Metrics[name] = v
			}
		}
	}
	// A run reports one family of metrics: the end-to-end ones come from
	// untraced runs only, so nobody mistakes a traced latency for one.
	for name := range res.Metrics {
		if isEndToEnd(name) == trace {
			delete(res.Metrics, name)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	res.Record.WallS = time.Since(started).Seconds()
	kind := "run"
	if trace {
		kind = "layers"
	}
	return res, writeJSON(filepath.Join(p.outDir, kind+"-"+w.name+".json"), res)
}
