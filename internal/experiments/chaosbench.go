package experiments

import (
	"fmt"
	"io"
	"sort"

	"otpdb/internal/chaos"
)

// This file is E13 (DESIGN.md §4): the chaos matrix. It is not a
// throughput benchmark but an adversity one — every shipped scenario of
// internal/chaos runs at one seed, and the report records whether the
// invariants held (digest convergence, no lost acked commit, effect-
// exactly-once, epoch monotonicity) together with the two operational
// quantities the ROADMAP asks for: commit availability during the fault
// phase and recovery time per fault class. `otpbench chaos [-seed S]
// [scenario ...]` runs it with pass/fail per scenario.

// ChaosBenchParams sizes E13.
type ChaosBenchParams struct {
	// Seed drives every scenario's fault schedule; the same seed replays
	// the same schedules.
	Seed int64
	// Quick restricts the matrix to the smoke scenarios.
	Quick bool
	// Out, when non-nil, streams per-scenario progress.
	Out io.Writer
	// DumpDir, when non-empty, receives a flight-recorder dump for
	// every scenario that fails an invariant (chaos.Options.DumpDir).
	DumpDir string
}

// ChaosClassStat aggregates recovery across every scenario that injected
// one fault class.
type ChaosClassStat struct {
	// Events is how many faults of the class were injected; Recovered how
	// many of the affected sites acknowledged a commit after repair.
	Events    int
	Recovered int
	// MeanMillis/MaxMillis are the recovery times: fault injection to the
	// affected site's first acknowledged commit after repair began.
	MeanMillis float64
	MaxMillis  float64
	// MinAvailability is the worst commit availability of any scenario
	// injecting the class (fraction of 100 ms fault-phase buckets with at
	// least one acknowledged commit somewhere).
	MinAvailability float64
}

// ChaosReport is E13's result.
type ChaosReport struct {
	Seed int64
	// Scenarios is the per-scenario outcome, in matrix order.
	Scenarios []chaos.Result
	// ByClass is the aggregated recovery/availability view per fault
	// class, keyed by chaos.FaultClass.
	ByClass map[string]ChaosClassStat
	// Replace aggregates the auto-replacement hysteresis across every
	// scenario that won a replacement round: how long the survivors
	// deliberately waited before acting (detect) versus how long the
	// repair itself took (rebuild).
	Replace ReplaceStat
}

// ReplaceStat aggregates auto-replacement phase timings across the
// matrix (see chaos.ReplacementMs).
type ReplaceStat struct {
	// Rounds is how many replacement rounds were won; Rebuilt how many
	// completed their state transfer.
	Rounds  int
	Rebuilt int
	// MeanDetectMillis is the mean sustained-suspicion window before a
	// survivor acted; MeanRebuildMillis the mean membership-commit plus
	// state-transfer time that followed.
	MeanDetectMillis  float64
	MeanRebuildMillis float64
}

// Failures counts scenarios whose invariants did not hold.
func (r ChaosReport) Failures() int {
	n := 0
	for _, res := range r.Scenarios {
		if !res.Pass {
			n++
		}
	}
	return n
}

// Chaos runs E13 and renders it; a scenario that failed its invariants
// is an error beside the table, so the caller's exit code is the verdict.
func Chaos(p ChaosBenchParams, names []string) (Table, error) {
	rep, err := ChaosBench(p, names)
	if err != nil {
		return Table{}, err
	}
	if n := rep.Failures(); n > 0 {
		err = fmt.Errorf("%d scenario(s) failed their invariants", n)
	}
	return rep.Table(), err
}

// ChaosBench runs E13 at one seed: the named scenarios, or the shipped
// matrix when names is empty. An invariant violation is a failed row,
// not an error; err is reserved for harness failures.
func ChaosBench(p ChaosBenchParams, names []string) (ChaosReport, error) {
	scenarios := chaos.Scenarios(p.Quick)
	if len(names) > 0 {
		scenarios = nil
		for _, name := range names {
			sc, ok := chaos.Find(name)
			if !ok {
				return ChaosReport{}, fmt.Errorf("unknown scenario %q", name)
			}
			scenarios = append(scenarios, sc)
		}
	}
	var results []chaos.Result
	for _, sc := range scenarios {
		res, err := chaos.Run(sc, p.Seed, chaos.Options{Out: p.Out, DumpDir: p.DumpDir})
		if err != nil {
			return ChaosReport{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if p.Out != nil {
			fmt.Fprintf(p.Out, "schedule for %s seed=%d:\n%s", sc.Name, p.Seed, res.ScheduleText)
		}
		results = append(results, *res)
	}
	return chaosReport(p.Seed, results), nil
}

// chaosReport aggregates scenario results per fault class and across
// auto-replacement rounds.
func chaosReport(seed int64, results []chaos.Result) ChaosReport {
	rep := ChaosReport{Seed: seed, Scenarios: results, ByClass: make(map[string]ChaosClassStat)}
	for _, res := range results {
		for class, st := range res.Recovery {
			agg, seen := rep.ByClass[class]
			// st.MeanMs is a mean over st.Recovered sites; re-weight into
			// the running aggregate before normalizing below.
			agg.MeanMillis += st.MeanMs * float64(st.Recovered)
			agg.Events += st.Events
			agg.Recovered += st.Recovered
			if st.MaxMs > agg.MaxMillis {
				agg.MaxMillis = st.MaxMs
			}
			// An availability of 0 is a measurement, not "unset".
			if !seen || res.Availability < agg.MinAvailability {
				agg.MinAvailability = res.Availability
			}
			rep.ByClass[class] = agg
		}
		for _, rm := range res.Replacements {
			rep.Replace.Rounds++
			rep.Replace.MeanDetectMillis += rm.DetectMs
			if rm.RebuildMs > 0 {
				rep.Replace.Rebuilt++
				rep.Replace.MeanRebuildMillis += rm.RebuildMs
			}
		}
	}
	for class, agg := range rep.ByClass {
		if agg.Recovered > 0 {
			agg.MeanMillis /= float64(agg.Recovered)
		}
		rep.ByClass[class] = agg
	}
	if rep.Replace.Rounds > 0 {
		rep.Replace.MeanDetectMillis /= float64(rep.Replace.Rounds)
	}
	if rep.Replace.Rebuilt > 0 {
		rep.Replace.MeanRebuildMillis /= float64(rep.Replace.Rebuilt)
	}
	return rep
}

// Table renders E13 as the otpbench plain-text tables.
func (r ChaosReport) Table() Table {
	t := Table{
		Title: "E13 — Chaos matrix: invariants under injected faults",
		Columns: []string{
			"scenario", "sites", "shards", "events", "acked", "avail", "result",
		},
	}
	for _, res := range r.Scenarios {
		verdict := "pass"
		if !res.Pass {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(res.Violations))
		}
		t.AddRow(res.Scenario,
			fmt.Sprintf("%d", res.Sites), fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%d", res.Events),
			fmt.Sprintf("%d/%d", res.Acked, res.Submitted),
			fmt.Sprintf("%.3f", res.Availability), verdict)
	}
	classes := make([]string, 0, len(r.ByClass))
	for class := range r.ByClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		st := r.ByClass[class]
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: %d/%d recovered, recovery mean %.0fms max %.0fms, worst availability %.3f",
			class, st.Recovered, st.Events, st.MeanMillis, st.MaxMillis, st.MinAvailability))
	}
	if r.Replace.Rounds > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"auto-replace: %d rounds (%d rebuilt), detect mean %.0fms, rebuild mean %.0fms",
			r.Replace.Rounds, r.Replace.Rebuilt, r.Replace.MeanDetectMillis, r.Replace.MeanRebuildMillis))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"seed %d; invariants: digest convergence, no lost acked commit, effect-once, epoch monotonicity", r.Seed))
	return t
}
