package otpdb_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"otpdb"
	"otpdb/internal/events"
	"otpdb/internal/metrics"
	"otpdb/internal/testutil"
)

// memCtx is a generous deadline for membership operations under -race.
func memCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// creditN runs n credit transactions through the given site and waits
// until every live site has committed at least total transactions.
func creditN(t *testing.T, c *otpdb.Cluster, site, n, total int) {
	t.Helper()
	ctx := memCtx(t)
	for i := 0; i < n; i++ {
		if err := c.Exec(ctx, site, "credit", otpdb.String("a"), otpdb.Int64(1)); err != nil {
			t.Fatalf("credit: %v", err)
		}
	}
	if err := c.WaitForCommits(ctx, total); err != nil {
		t.Fatalf("WaitForCommits(%d): %v", total, err)
	}
}

// assertConverged requires every live site to report one digest.
func assertConverged(t *testing.T, c *otpdb.Cluster) {
	t.Helper()
	testutil.Eventually(t, time.Minute, "live sites to converge on one digest", func() bool {
		ok, err := c.Converged()
		if err != nil {
			t.Fatal(err)
		}
		return ok
	})
}

// assertEpoch requires the given sites to agree on a membership epoch
// and member count. A site applies the change at its own commit of the
// configuration transaction, so each may lag briefly.
func assertEpoch(t *testing.T, c *otpdb.Cluster, epoch uint64, members int, sites ...int) {
	t.Helper()
	for _, site := range sites {
		var e uint64
		var m []int
		testutil.EventuallyOr(t, time.Minute,
			fmt.Sprintf("site %d to reach epoch %d with %d members", site, epoch, members),
			func() bool {
				var err error
				if e, err = c.Epoch(site); err != nil {
					t.Fatal(err)
				}
				if m, err = c.Members(site); err != nil {
					t.Fatal(err)
				}
				return e == epoch && len(m) == members
			}, func() {
				t.Logf("site %d: epoch=%d members=%v", site, e, m)
			})
	}
}

// TestAddSiteGrowsGroup: a fourth site is admitted through the ordered
// configuration change, statex-joins mid-traffic, serves transactions,
// and converges to the group digest.
func TestAddSiteGrowsGroup(t *testing.T) {
	flight := events.NewRecorder(256)
	c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithEvents(flight))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := memCtx(t)
	creditN(t, c, 0, 10, 10)

	site, err := c.AddSite(ctx)
	if err != nil {
		t.Fatalf("AddSite: %v", err)
	}
	if site != 3 {
		t.Fatalf("new site index = %d, want 3", site)
	}
	if c.Size() != 4 {
		t.Fatalf("Size after add = %d", c.Size())
	}
	// The new site's state transfer is in the flight recorder, as a
	// restarted site's is: a "fetch" entry opens every transfer.
	fetch := false
	for _, ev := range flight.Events() {
		fetch = fetch || (ev.Kind == events.KindStatex && ev.Site == site && ev.Fields["phase"] == "fetch")
	}
	if !fetch {
		t.Fatalf("no statex fetch event for added site %d in %v", site, flight.Events())
	}
	// Epoch 2 everywhere, four members.
	assertEpoch(t, c, 2, 4, 0, 1, 2, 3)

	// The new site serves updates and queries in agreement.
	sess, err := c.Session(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(ctx, "credit", otpdb.String("a"), otpdb.Int64(5))
	if err != nil {
		t.Fatalf("exec at added site: %v", err)
	}
	if otpdb.AsInt64(res.Value) != 15 {
		t.Fatalf("added site sees balance %d, want 15", otpdb.AsInt64(res.Value))
	}
	// +1 for the membership change itself: it occupies a definitive
	// commit at every site.
	if err := c.WaitForCommits(ctx, 12); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, c)
}

// TestRemoveSiteShrinksQuorum: removing a dead site from a four-member
// group drops the quorum from 3 to 2, which is what lets the group keep
// committing after a second crash — under the old configuration two
// dead sites of four would have stalled it.
func TestRemoveSiteShrinksQuorum(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(4))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := memCtx(t)
	creditN(t, c, 0, 5, 5)

	// Site 3 dies for good; vote it out.
	if err := c.CrashSite(3); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveSite(ctx, 3); err != nil {
		t.Fatalf("RemoveSite: %v", err)
	}
	assertEpoch(t, c, 2, 3, 0, 1, 2)

	// Now a second crash: {0, 1} is a quorum of the three-member group
	// (it would not have been a quorum of four), so commits proceed.
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 0, 5, 11) // 10 credits + the membership change
	assertConverged(t, c)

	// The removed identity cannot sneak back via RestartSite.
	if err := c.RestartSite(ctx, 3); err == nil {
		t.Fatal("RestartSite revived a removed site")
	}
	// But the crashed (not removed) site can.
	if err := c.RestartSite(ctx, 2); err != nil {
		t.Fatalf("RestartSite(2): %v", err)
	}
	creditN(t, c, 2, 1, 12)
	assertConverged(t, c)
}

// TestReplaceSiteReadmitsDeadIdentity: a crashed site is replaced — one
// epoch change — and the fresh incarnation catches up from a donor and
// serves traffic while the survivors never stop serving. A subsequent
// RemoveSite shrinks the group again.
func TestReplaceSiteReadmitsDeadIdentity(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := memCtx(t)
	creditN(t, c, 0, 10, 10)

	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	// Survivors keep committing while the site is down.
	creditN(t, c, 0, 10, 20)

	if err := c.ReplaceSite(ctx, 2); err != nil {
		t.Fatalf("ReplaceSite: %v", err)
	}
	assertEpoch(t, c, 2, 3, 0, 1, 2)
	// The replacement serves in agreement with the survivors: 20 credits
	// of 1 plus this one.
	sess, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(ctx, "credit", otpdb.String("a"), otpdb.Int64(1))
	if err != nil {
		t.Fatalf("exec at replacement: %v", err)
	}
	if otpdb.AsInt64(res.Value) != 21 {
		t.Fatalf("replacement sees balance %d, want 21", otpdb.AsInt64(res.Value))
	}
	if err := c.WaitForCommits(ctx, 22); err != nil { // 21 credits + 1 change
		t.Fatal(err)
	}
	assertConverged(t, c)
	if mode, err := c.RejoinMode(2); err != nil || mode == "" {
		t.Fatalf("RejoinMode = %q, %v", mode, err)
	}

	// Replace is remove+add in one epoch; a later RemoveSite still works
	// and lands on epoch 3.
	if err := c.RemoveSite(ctx, 2); err != nil {
		t.Fatalf("RemoveSite after replace: %v", err)
	}
	assertEpoch(t, c, 3, 2, 0, 1)
	creditN(t, c, 0, 1, 24) // 22 credits + 2 changes
}

// TestReplaceHeadLosesRound0: the round-0 promise — site 0 proposes
// without an estimate quorum, which is what makes an ordering stage two
// message delays — belongs to the process that has headed the group since
// the first epoch, and nobody inherits it. After the head is replaced
// consensus_owns_round0 reads 0 at every site, the replacement included,
// and every stage costs three delays until the whole cluster restarts
// (ROADMAP, "Two-delay stages do not survive the first
// reconfiguration"). A per-epoch promise flips the last assertion.
func TestReplaceHeadLosesRound0(t *testing.T) {
	reg := metrics.NewRegistry()
	c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithMetrics(reg))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	owns := func(site int) int64 {
		return reg.Scope("shard", "0", "site", strconv.Itoa(site)).Gauge("consensus_owns_round0").Value()
	}
	creditN(t, c, 1, 5, 5)
	if got := [3]int64{owns(0), owns(1), owns(2)}; got != [3]int64{1, 0, 0} {
		t.Fatalf("consensus_owns_round0 by site = %v before any change, want [1 0 0]", got)
	}

	ctx := memCtx(t)
	if err := c.CrashSite(0); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 1, 5, 10)
	if err := c.ReplaceSite(ctx, 0); err != nil {
		t.Fatalf("ReplaceSite: %v", err)
	}
	assertEpoch(t, c, 2, 3, 0, 1, 2)
	creditN(t, c, 0, 5, 16) // 15 credits + 1 change, through the new head
	if got := [3]int64{owns(0), owns(1), owns(2)}; got != [3]int64{0, 0, 0} {
		t.Fatalf("consensus_owns_round0 by site = %v after the head was replaced, want [0 0 0]", got)
	}
}

// TestReplaceSiteRequiresCrash: replacing a live site is rejected.
func TestReplaceSiteRequiresCrash(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceSite(memCtx(t), 1); err == nil {
		t.Fatal("ReplaceSite of a live site succeeded")
	}
}

// TestMembershipSurvivesColdRestart: the configuration is replicated
// state, so a durable cluster restarted from disk comes back in the
// epoch it was stopped in.
func TestMembershipSurvivesColdRestart(t *testing.T) {
	dir := t.TempDir()
	build := func() *otpdb.Cluster {
		c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithDurability(dir),
			otpdb.WithSyncPolicy(otpdb.SyncEveryCommit))
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build()
	ctx := memCtx(t)
	creditN(t, c, 0, 5, 5)
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceSite(ctx, 2); err != nil {
		t.Fatalf("ReplaceSite: %v", err)
	}
	assertEpoch(t, c, 2, 3, 0, 1, 2)
	creditN(t, c, 0, 1, 7) // 6 credits + 1 change
	c.Stop()

	c2 := build()
	assertEpoch(t, c2, 2, 3, 0, 1, 2)
	idx, err := c2.RecoveredIndex(0)
	if err != nil || idx == 0 {
		t.Fatalf("RecoveredIndex = %d, %v", idx, err)
	}
	creditN(t, c2, 0, 1, 8)
	assertConverged(t, c2)
}
