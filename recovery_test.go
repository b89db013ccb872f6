package otpdb_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"otpdb"
	"otpdb/internal/events"
	"otpdb/internal/testutil"
)

// bumpN drives n "incr" transactions (see session_test.go's
// counterCluster) through the given site and returns the last result.
func bumpN(t *testing.T, cluster *otpdb.Cluster, site, n int) otpdb.Result {
	t.Helper()
	sess, err := cluster.Session(site)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var last otpdb.Result
	for i := 0; i < n; i++ {
		res, err := sess.Exec(ctx, "incr")
		if err != nil {
			t.Fatalf("incr %d at site %d: %v", i, site, err)
		}
		last = res
	}
	return last
}

func readCounter(t *testing.T, cluster *otpdb.Cluster, site int) int64 {
	t.Helper()
	v, _, err := cluster.Read(site, "counter", "n")
	if err != nil {
		t.Fatal(err)
	}
	return otpdb.AsInt64(v)
}

// TestDurableColdRestart commits through a durable single-site database,
// stops it cleanly, reopens the directory and checks that the full
// committed state and the definitive index counter are recovered.
func TestDurableColdRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *otpdb.Cluster {
		c := counterCluster(t,
			otpdb.WithReplicas(1),
			otpdb.WithDurability(dir),
			otpdb.WithSyncPolicy(otpdb.SyncEveryCommit),
			otpdb.WithCheckpointEvery(25), // several checkpoints over the run
		)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := open()
	last := bumpN(t, c1, 0, 100)
	if last.TOIndex != 100 {
		t.Fatalf("last TOIndex = %d, want 100", last.TOIndex)
	}
	c1.Stop()

	c2 := open()
	defer c2.Stop()
	base, err := c2.RecoveredIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if base != 100 {
		t.Fatalf("RecoveredIndex = %d, want 100", base)
	}
	if got := readCounter(t, c2, 0); got != 100 {
		t.Fatalf("recovered counter = %d, want 100", got)
	}
	// New commits continue the definitive order where it left off.
	if res := bumpN(t, c2, 0, 1); res.TOIndex != 101 || otpdb.AsInt64(res.Value) != 101 {
		t.Fatalf("post-recovery commit = TO %d value %d, want 101/101", res.TOIndex, otpdb.AsInt64(res.Value))
	}
}

// TestDurableCrashRestart simulates a kill -9: the first cluster is
// abandoned without Stop (no flush, no checkpoint finalization), then
// the directory is reopened. Every acknowledged commit must be
// recovered exactly. Runs under -race in CI.
func TestDurableCrashRestart(t *testing.T) {
	dir := t.TempDir()
	c1 := counterCluster(t,
		otpdb.WithReplicas(1),
		otpdb.WithDurability(dir),
		otpdb.WithSyncPolicy(otpdb.SyncNever), // process crash: write() suffices
		otpdb.WithCheckpointEvery(-1),         // recovery replays the whole log
	)
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	bumpN(t, c1, 0, 60)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c1.WaitForCommits(ctx, 60); err != nil {
		t.Fatal(err)
	}
	// No Stop: the "process" dies here. The old goroutines idle (nothing
	// more is submitted) while the directory is reopened.

	c2 := counterCluster(t,
		otpdb.WithReplicas(1),
		otpdb.WithDurability(dir),
	)
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	base, err := c2.RecoveredIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if base != 60 {
		t.Fatalf("RecoveredIndex after crash = %d, want 60", base)
	}
	if got := readCounter(t, c2, 0); got != 60 {
		t.Fatalf("recovered counter = %d, want 60", got)
	}
	if res := bumpN(t, c2, 0, 5); res.TOIndex != 65 {
		t.Fatalf("post-crash commit TOIndex = %d, want 65", res.TOIndex)
	}
}

// TestStartFailureTearsDown: a cold Start that fails part-way — here
// because one durable site recovered to an older index than the others
// — must stop the sites it had already started and release their
// directories; a failed Start leaves nothing for Stop to find.
func TestStartFailureTearsDown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	mk := func(replicas int) *otpdb.Cluster {
		return counterCluster(t,
			otpdb.WithReplicas(replicas),
			otpdb.WithDurability(dir),
			otpdb.WithConsensusRoundTimeout(50*time.Millisecond),
		)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Site 2 stops logging at index 10; sites 0 and 1 go on to 20.
	c := mk(3)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	bumpN(t, c, 0, 10)
	if err := c.WaitForCommits(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	bumpN(t, c, 0, 10)
	if err := c.WaitForCommits(ctx, 20); err != nil {
		t.Fatal(err)
	}
	c.Stop()

	// Sites 0 and 1 come up, site 2 trips the check.
	err := mk(3).Start()
	if err == nil || !strings.Contains(err.Error(), "different indexes") {
		t.Fatalf("Start over diverged directories = %v, want the different-indexes error", err)
	}
	testutil.Eventually(t, 10*time.Second, "the sites of the failed Start to stop", func() bool {
		return runtime.NumGoroutine() <= baseline
	})

	// The directories of the sites that had started reopen and log on.
	again := mk(2)
	if err := again.Start(); err != nil {
		t.Fatalf("reopen sites 0 and 1: %v", err)
	}
	for site := 0; site < 2; site++ {
		if base, err := again.RecoveredIndex(site); err != nil || base != 20 {
			t.Fatalf("site %d recovered index = %d, %v; want 20", site, base, err)
		}
	}
	if res := bumpN(t, again, 0, 1); res.TOIndex != 21 {
		t.Fatalf("commit after reopen = TO %d, want 21", res.TOIndex)
	}
}

// TestRestartSiteRejoin crashes a minority of a five-site cluster,
// commits through the survivors, rejoins the victims live, and checks
// that all five sites reconverge and that the restarted sites submit
// and commit new transactions in agreement with the survivors.
func TestRestartSiteRejoin(t *testing.T) {
	cluster := counterCluster(t,
		otpdb.WithReplicas(5),
		otpdb.WithConsensusRoundTimeout(50*time.Millisecond),
	)
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	total := 0
	for site := 0; site < 5; site++ {
		bumpN(t, cluster, site, 4)
		total += 4
	}

	// Crash a minority.
	for _, victim := range []int{3, 4} {
		if err := cluster.CrashSite(victim); err != nil {
			t.Fatal(err)
		}
	}
	// Survivors keep committing.
	for site := 0; site < 3; site++ {
		bumpN(t, cluster, site, 5)
		total += 5
	}

	// Live rejoin both victims.
	for _, victim := range []int{3, 4} {
		if err := cluster.RestartSite(ctx, victim); err != nil {
			t.Fatalf("RestartSite(%d): %v", victim, err)
		}
		// The survivors' retained definitive history easily covers this
		// short run, so the state transfer negotiates a tail.
		if mode, err := cluster.RejoinMode(victim); err != nil || mode != "tail-only" {
			t.Fatalf("RejoinMode(%d) = %q, %v; want tail-only", victim, mode, err)
		}
	}

	// Every site — including the restarted ones — submits new work.
	for site := 0; site < 5; site++ {
		res := bumpN(t, cluster, site, 3)
		total += 3
		if res.TOIndex == 0 {
			t.Fatalf("site %d: zero TOIndex after rejoin", site)
		}
	}

	if err := cluster.WaitForCommits(ctx, total); err != nil {
		t.Fatalf("WaitForCommits(%d): %v", total, err)
	}
	ok, err := cluster.Converged()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("sites did not reconverge after rejoin")
	}
	for site := 0; site < 5; site++ {
		if got := readCounter(t, cluster, site); got != int64(total) {
			t.Fatalf("site %d counter = %d, want %d", site, got, total)
		}
	}
	if err := cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartSiteDurable exercises rejoin with durability on: the
// victim's directory is reset to the transferred checkpoint and keeps
// logging, so a subsequent cold restart of the whole (stopped) cluster
// recovers the converged state at every site.
func TestRestartSiteDurable(t *testing.T) {
	dir := t.TempDir()
	mk := func() *otpdb.Cluster {
		c := counterCluster(t,
			otpdb.WithReplicas(3),
			otpdb.WithDurability(dir),
			otpdb.WithConsensusRoundTimeout(50*time.Millisecond),
		)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	cluster := mk()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	bumpN(t, cluster, 0, 10)
	if err := cluster.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	bumpN(t, cluster, 1, 10)
	if err := cluster.RestartSite(ctx, 2); err != nil {
		t.Fatalf("RestartSite: %v", err)
	}
	bumpN(t, cluster, 2, 5)
	if err := cluster.WaitForCommits(ctx, 25); err != nil {
		t.Fatal(err)
	}
	ok, err := cluster.Converged()
	if err != nil || !ok {
		t.Fatalf("converged = %v, %v", ok, err)
	}
	cluster.Stop()

	// Whole-cluster cold restart from the three directories.
	again := mk()
	defer again.Stop()
	for site := 0; site < 3; site++ {
		base, err := again.RecoveredIndex(site)
		if err != nil {
			t.Fatal(err)
		}
		if base != 25 {
			t.Fatalf("site %d recovered index = %d, want 25", site, base)
		}
		if got := readCounter(t, again, site); got != 25 {
			t.Fatalf("site %d recovered counter = %d, want 25", site, got)
		}
	}
	bumpN(t, again, 0, 1)
	if got := readCounter(t, again, 0); got != 26 {
		t.Fatalf("counter after restart commit = %d, want 26", got)
	}
}

// TestRestartSiteCheckpointFallback forces the backlog-evicted path: a
// tiny retained-history cap means the survivors no longer hold the
// definitive deliveries the victim missed, so the state transfer must
// fall back from tail-only to a full checkpoint + tail — and the
// rejoined site still reconverges.
func TestRestartSiteCheckpointFallback(t *testing.T) {
	flight := events.NewRecorder(4096)
	cluster := counterCluster(t,
		otpdb.WithReplicas(3),
		otpdb.WithConsensusRoundTimeout(50*time.Millisecond),
		otpdb.WithDefLogCap(32), // the survivors retain the last 32 deliveries
		otpdb.WithEvents(flight),
	)
	if err := cluster.Seed("counter", "seeded", otpdb.Int64(77)); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	bumpN(t, cluster, 0, 10)
	if err := cluster.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	// Far more commits than the ring retains: the victim's gap reaches
	// below the survivors' history.
	bumpN(t, cluster, 0, 150)

	if err := cluster.RestartSite(ctx, 2); err != nil {
		t.Fatalf("RestartSite: %v", err)
	}
	if mode, err := cluster.RejoinMode(2); err != nil || mode != "checkpoint+tail" {
		t.Fatalf("RejoinMode = %q, %v; want checkpoint+tail", mode, err)
	}
	// One negotiation with one donor: across all donors the rejoin is
	// served once, and the joiner's fetch completes after it.
	var phases []string
	for _, ev := range flight.Events() {
		if p := ev.Fields["phase"]; ev.Kind == events.KindStatex && (p == "serve" || p == "fetched") {
			phases = append(phases, ev.String())
		}
	}
	if len(phases) != 2 || !strings.Contains(phases[0], "phase=serve") || !strings.Contains(phases[1], "phase=fetched") {
		t.Fatalf("statex rejoin events = %q, want one serve followed by one fetched", phases)
	}

	bumpN(t, cluster, 2, 5)
	if err := cluster.WaitForCommits(ctx, 165); err != nil {
		t.Fatal(err)
	}
	ok, err := cluster.Converged()
	if err != nil || !ok {
		t.Fatalf("converged = %v, %v", ok, err)
	}
	if got := readCounter(t, cluster, 2); got != 165 {
		t.Fatalf("restarted site counter = %d, want 165", got)
	}
	// Values that predate the eviction window — including the seed, which
	// never appears in any backlog — arrived through the checkpoint.
	v, okv, err := cluster.Read(2, "counter", "seeded")
	if err != nil || !okv || otpdb.AsInt64(v) != 77 {
		t.Fatalf("seeded key at restarted site = %v/%v/%v, want 77", v, okv, err)
	}
}

// TestRestartSiteRequiresCrash documents the precondition.
func TestRestartSiteRequiresCrash(t *testing.T) {
	cluster := counterCluster(t, otpdb.WithReplicas(3))
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	err := cluster.RestartSite(context.Background(), 1)
	if err == nil {
		t.Fatal("RestartSite of a live site should fail")
	}
	if !strings.Contains(err.Error(), "not crashed") {
		t.Fatalf("unexpected error: %v", err)
	}
}
