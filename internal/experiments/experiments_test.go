package experiments

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Columns: []string{"col1", "c2"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("v1", "longer-value")
	tab.AddRow("v2", "x")
	out := tab.String()
	for _, want := range []string{"== demo ==", "col1", "longer-value", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestAbortRateCellMonotoneInClasses(t *testing.T) {
	one := AbortRateCell(800, 1, 0.25, 11)
	many := AbortRateCell(800, 16, 0.25, 11)
	if one.Commits != 800 || many.Commits != 800 {
		t.Fatalf("commits = %d/%d", one.Commits, many.Commits)
	}
	if one.Aborts <= many.Aborts {
		t.Fatalf("aborts(1 class)=%d should exceed aborts(16 classes)=%d",
			one.Aborts, many.Aborts)
	}
}

func TestAbortRateTableShape(t *testing.T) {
	tab := AbortRate(AbortRateParams{
		Txns:          300,
		Classes:       []int{1, 8},
		MismatchProbs: []float64{0.1},
		Seed:          5,
	})
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 2 {
		t.Fatalf("table shape = %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
}

// TestOverlapOTPBeatsConservative holds E3 to the shape of the §4 claim on
// the real stack, not just its sign: at E = 2 ms and one-way delay 1 ms
// (D = two delays) the overlapped commit costs about max(E, D) and the
// conservative one about E + D. Something else taking the processor makes
// a commit late, never early, and conservative processing cannot come in
// under its floor by luck: one attempt of three inside both bounds is the
// stack's.
func TestOverlapOTPBeatsConservative(t *testing.T) {
	const e, d = 2 * time.Millisecond, 2 * time.Millisecond
	limit, floor := max(e, d)*5/4, (e+d)*9/10
	for attempt := 1; ; attempt++ {
		tab, err := Overlap(OverlapParams{ExecTime: e, NetDelays: []time.Duration{d / 2}, Txns: 8})
		if err != nil {
			t.Fatal(err)
		}
		optMean, err := time.ParseDuration(tab.Rows[0][2])
		if err != nil {
			t.Fatal(err)
		}
		consMean, err := time.ParseDuration(tab.Rows[0][3])
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d, E = %v, D = %v: OTP %v, conservative %v", attempt, e, d, optMean, consMean)
		if consMean < floor {
			t.Fatalf("conservative mean %v, want at least 0.9 x (E + D) = %v", consMean, floor)
		}
		if optMean <= limit {
			return
		}
		if attempt == 3 {
			t.Fatalf("OTP mean %v, want at most 1.25 x max(E, D) = %v", optMean, limit)
		}
	}
}

// TestMismatchedOrderSwapProbability pins the model E2 sweeps: a
// permutation in which each adjacent pair was swapped with probability p.
// Step i swaps positions i and i+1 while position i+1 still holds i+1, and
// never touches position i again, so position i holds i+1 exactly when
// step i swapped.
func TestMismatchedOrderSwapProbability(t *testing.T) {
	const n = 20000
	for _, p := range []float64{0, 0.1, 0.5} {
		perm := mismatchedOrder(n, p, rand.New(rand.NewSource(6)))
		seen, swaps := make([]bool, n), 0
		for i, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("p=%v: not a permutation at %d: %d", p, i, v)
			}
			seen[v] = true
			if v == i+1 {
				swaps++
			}
		}
		if share := float64(swaps) / (n - 1); share < p-0.02 || share > p+0.02 || (p == 0 && swaps != 0) {
			t.Fatalf("p=%v: %d of %d adjacent pairs swapped (%.3f)", p, swaps, n-1, share)
		}
	}
}

// TestVsAsyncShapes holds E4 to its claim. OTP loses no update;
// asynchronous replication loses some, because both sites increment from
// the same base before either's write sets arrive (a 5 ms delay against
// microseconds of local work) and the blind apply overwrites.
func TestVsAsyncShapes(t *testing.T) {
	tab, err := VsAsync(VsAsyncParams{Sites: 2, IncrementsPerSite: 10, NetDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.HasPrefix(tab.Rows[0][3], "0/") {
		t.Fatalf("OTP lost updates: %q", tab.Rows[0][3])
	}
	if strings.HasPrefix(tab.Rows[1][3], "0/") {
		t.Fatalf("async replication lost no update: %q", tab.Rows[1][3])
	}
}

// asyncPair starts two asynchronous replicas of incr over a hub whose
// links take delay; the hub closes when the test ends.
func asyncPair(t *testing.T, delay time.Duration) (local, peer *asyncReplica) {
	t.Helper()
	reg := sproc.NewRegistry()
	if err := reg.RegisterUpdate(incr); err != nil {
		t.Fatal(err)
	}
	var opts []transport.MemOption
	if delay > 0 {
		opts = append(opts, transport.WithDelay(delay))
	}
	hub := transport.NewHub(2, opts...)
	t.Cleanup(hub.Close)
	return startAsync(hub.Endpoint(0), reg), startAsync(hub.Endpoint(1), reg)
}

func counterAt(r *asyncReplica) int64 {
	v, _ := r.store.Get(storage.Partition(incr.Class), "n")
	return storage.ValueInt64(v)
}

// TestAsyncLocalCommitThenPropagation: an update is visible at its own
// replica as soon as exec returns and reaches the peer afterwards.
func TestAsyncLocalCommitThenPropagation(t *testing.T) {
	local, peer := asyncPair(t, 0)
	for want := int64(1); want <= 2; want++ {
		if err := local.exec("incr"); err != nil {
			t.Fatal(err)
		}
		if got := counterAt(local); got != want {
			t.Fatalf("local counter %d, want %d", got, want)
		}
		peer.waitApplied(uint64(want))
		if got := counterAt(peer); got != want {
			t.Fatalf("peer counter %d, want %d", got, want)
		}
	}
}

// TestAsyncConcurrentConflictingUpdatesLose: with a propagation delay,
// both sites increment from the same base and the blind write-set apply
// loses one of the increments — the anomaly the paper's architecture
// avoids.
func TestAsyncConcurrentConflictingUpdatesLose(t *testing.T) {
	a, b := asyncPair(t, 5*time.Millisecond)
	done := make(chan error, 2)
	for _, r := range []*asyncReplica{a, b} {
		go func() { done <- r.exec("incr") }()
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	a.waitApplied(1)
	b.waitApplied(1)
	// Both committed one increment locally, then overwrote each other: the
	// final value is 1 at both sites (or they diverge), never 2.
	if counterAt(a) == 2 && counterAt(b) == 2 {
		t.Fatal("async replication unexpectedly preserved both conflicting increments")
	}
}

// TestAsyncUnknownProcErrors: a procedure the registry does not know is
// refused and changes nothing.
func TestAsyncUnknownProcErrors(t *testing.T) {
	local, _ := asyncPair(t, 0)
	if err := local.exec("nope"); err == nil {
		t.Fatal("unknown proc accepted")
	}
	if got := counterAt(local); got != 0 {
		t.Fatalf("counter %d after a refused exec, want 0", got)
	}
}

func TestOrderingShapes(t *testing.T) {
	tab, err := Ordering(OrderingParams{
		Sites:    3,
		Messages: 10,
		NetDelay: time.Millisecond,
		Jitter:   200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRejoinBenchModesAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	rep, err := RejoinBench(RejoinParams{
		Sites:    3,
		Backlogs: []int{120},
		Keys:     16,
		EvictCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	// RejoinBench verifies the negotiated mode per cell; pin the pairing
	// here too so the report stays interpretable.
	if rep.Cells[0].Mode != "tail-only" || rep.Cells[1].Mode != "checkpoint+tail" {
		t.Fatalf("modes = %q/%q", rep.Cells[0].Mode, rep.Cells[1].Mode)
	}
	for _, c := range rep.Cells {
		if c.RejoinMillis <= 0 || c.MissedPerSec <= 0 {
			t.Fatalf("cell %+v has non-positive timing", c)
		}
	}
}

func TestQueriesSnapshotRowIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tab, err := Queries(QueriesParams{Sites: 2, Classes: 2, TransfersPerSite: 30, Queries: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot row: zero torn totals, serializable.
	if tab.Rows[0][4] != "0" || tab.Rows[0][5] != "true" {
		t.Fatalf("snapshot row = %v", tab.Rows[0])
	}
}

func TestShardBenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	rep, err := ShardBench(ShardBenchParams{
		Replicas:    1,
		Shards:      []int{1, 2},
		Txns:        60,
		Depth:       8,
		FlushDelay:  200 * time.Microsecond,
		DurableTxns: 30,
		CrossShards: 2,
		CrossRatios: []float64{0.25},
		CrossTxns:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scale) != 2 || len(rep.ScaleDurable) != 2 || len(rep.Cross) != 1 {
		t.Fatalf("report shape: %d scale, %d durable, %d cross",
			len(rep.Scale), len(rep.ScaleDurable), len(rep.Cross))
	}
	for _, c := range append(append([]ShardScaleCell{}, rep.Scale...), rep.ScaleDurable...) {
		if c.PerSec <= 0 {
			t.Fatalf("cell %+v has non-positive throughput", c)
		}
	}
	// 10 of 40 transactions cross two shards at ratio 0.25.
	if rep.Cross[0].CrossTxns != 10 {
		t.Fatalf("cross txns = %d, want 10", rep.Cross[0].CrossTxns)
	}
	if rep.Cross[0].PerSec <= 0 {
		t.Fatalf("cross cell %+v has non-positive throughput", rep.Cross[0])
	}
}
