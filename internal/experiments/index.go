package experiments

// Experiment is one entry of the experiment index.
type Experiment struct {
	// ID is the experiment's number in DESIGN.md §4 and in table titles.
	ID string
	// Name is the otpbench target.
	Name string
	// Claim is the paper claim or quantity the table reproduces.
	Claim string
	// Run executes the experiment — at CI-smoke scale when quick is set,
	// which is the only scale switch — and returns its table. A non-nil
	// error beside a rendered table means the run completed and its
	// verdict is a failure (a chaos invariant, the trace budget).
	Run func(quick bool) (Table, error)
}

// Index is the only list of experiments: otpbench's targets, usage text
// and run-everything order come from it, and TestIndex holds the
// DESIGN.md §4 table to exactly these rows. Each entry's sizes live in
// its file's params function.
var Index = []Experiment{
	{"E1", "figure1", "spontaneous total order vs load interval (Figure 1)",
		sized(figure1Params, Figure1)},
	{"E2", "abortrate", "aborts/commit fall with more conflict classes (§3.2)",
		func(quick bool) (Table, error) { return AbortRate(abortRateParams(quick)), nil }},
	{"E3", "overlap", "OTP commit ≈ max(E, D) vs conservative E+D (§4)",
		sized(overlapParams, Overlap)},
	{"E4", "async", "lost updates under asynchronous replication (§1)",
		sized(vsAsyncParams, VsAsync)},
	{"E5", "queries", "snapshot vs dirty reads, 1-copy-serializability (§5)",
		sized(queriesParams, Queries)},
	{"E6", "pipeline", "Session pipelining: throughput vs in-flight depth",
		sized(pipelineParams, Pipeline)},
	{"E7b", "ordering", "optimistic vs conservative delivery, one engine",
		sized(orderingParams, Ordering)},
	{"E9", "recovery", "recovery time vs log length; fsync-policy cost (§7)",
		sized(recoveryParams, tabled(RecoveryBench))},
	{"E10", "rejoin", "live-rejoin time vs missed backlog, per transfer mode (§8)",
		sized(rejoinParams, tabled(RejoinBench))},
	{"E11", "reconfig", "replace/grow a live group: op time vs missed backlog (§9)",
		sized(reconfigParams, tabled(ReconfigBench))},
	{"E12", "shard", "aggregate throughput vs shard count; cross-shard ratio sweep (§10)",
		sized(shardParams, tabled(ShardBench))},
	{"E13", "chaos", "invariants + recovery/availability under injected faults (§11)",
		func(quick bool) (Table, error) { return Chaos(ChaosBenchParams{Seed: 1, Quick: quick}, nil) }},
	{"E14", "traceoverhead", "trace-ring cost on the commit p50, inside 3 % + noise (§12)",
		TraceOverhead},
}

// sized binds an experiment to its file's params function.
func sized[P any](params func(quick bool) P, run func(P) (Table, error)) func(bool) (Table, error) {
	return func(quick bool) (Table, error) { return run(params(quick)) }
}

// tabled renders a report-returning benchmark.
func tabled[P any, R interface{ Table() Table }](bench func(P) (R, error)) func(P) (Table, error) {
	return func(p P) (Table, error) {
		rep, err := bench(p)
		if err != nil {
			return Table{}, err
		}
		return rep.Table(), nil
	}
}
