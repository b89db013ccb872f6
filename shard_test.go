package otpdb_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"otpdb"
	"otpdb/internal/db"
	"otpdb/internal/testutil"
)

// newShardedCluster builds a started 2-shard cluster with classes
// "alpha" pinned to shard 0 and "beta" to shard 1, plus the procedures
// the sharding tests share.
func newShardedCluster(t *testing.T, opts ...otpdb.Option) *otpdb.Cluster {
	t.Helper()
	return newShardedClusterWith(t, nil, opts...)
}

// newShardedClusterWith additionally invokes register before Start, for
// tests that need extra procedures.
func newShardedClusterWith(t *testing.T, register func(*otpdb.Cluster), opts ...otpdb.Option) *otpdb.Cluster {
	t.Helper()
	all := append([]otpdb.Option{
		otpdb.WithReplicas(3),
		otpdb.WithShards(2),
		otpdb.WithCrossShardTimeouts(500*time.Millisecond, 900*time.Millisecond),
	}, opts...)
	c, err := otpdb.NewCluster(all...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PinClass("alpha", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PinClass("beta", 1); err != nil {
		t.Fatal(err)
	}
	c.MustRegisterUpdate(otpdb.Update{
		Name:  "inc-alpha",
		Class: "alpha",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			v, _ := ctx.Read("n")
			next := otpdb.Int64(otpdb.AsInt64(v) + 1)
			return next, ctx.Write("n", next)
		},
	})
	c.MustRegisterUpdate(otpdb.Update{
		Name:  "inc-beta",
		Class: "beta",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			v, _ := ctx.Read("n")
			next := otpdb.Int64(otpdb.AsInt64(v) + 1)
			return next, ctx.Write("n", next)
		},
	})
	// transfer moves amt from alpha/bal to beta/bal — the canonical
	// cross-shard transaction.
	c.MustRegisterMultiUpdate(otpdb.MultiUpdate{
		Name:    "transfer",
		Classes: []otpdb.Class{"alpha", "beta"},
		Fn: func(ctx otpdb.MultiUpdateCtx) (otpdb.Value, error) {
			amt := otpdb.AsInt64(ctx.Args()[0])
			src, _ := ctx.Read("alpha", "bal")
			dst, _ := ctx.Read("beta", "bal")
			if otpdb.AsInt64(src) < amt {
				return nil, fmt.Errorf("insufficient funds")
			}
			if err := ctx.Write("alpha", "bal", otpdb.Int64(otpdb.AsInt64(src)-amt)); err != nil {
				return nil, err
			}
			if err := ctx.Write("beta", "bal", otpdb.Int64(otpdb.AsInt64(dst)+amt)); err != nil {
				return nil, err
			}
			return otpdb.Int64(otpdb.AsInt64(src) - amt), nil
		},
	})
	if err := c.Seed("alpha", "bal", otpdb.Int64(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Seed("beta", "bal", otpdb.Int64(0)); err != nil {
		t.Fatal(err)
	}
	if register != nil {
		register(c)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitUntil waits until cond holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	testutil.Eventually(t, d, what, cond)
}

// readInt64 reads a committed value at a site, failing the test on error.
func readInt64(t *testing.T, c *otpdb.Cluster, site int, class otpdb.Class, key otpdb.Key) (int64, bool) {
	t.Helper()
	v, ok, err := c.Read(site, class, key)
	if err != nil {
		t.Fatal(err)
	}
	return otpdb.AsInt64(v), ok
}

// TestShardedWaitForCommitsStops: with two shards, a WaitForCommits that
// cannot be met returns db.ErrStopped once the cluster stops — both the
// wait already running at Stop and one begun after it — as a
// single-shard cluster's does, instead of sitting out its context.
func TestShardedWaitForCommitsStops(t *testing.T) {
	c := newShardedCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	running := make(chan error, 1)
	go func() { running <- c.WaitForCommits(ctx, 1000) }()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	c.Stop()
	if err := <-running; !errors.Is(err, db.ErrStopped) {
		t.Fatalf("running wait = %v after %v, want db.ErrStopped", err, time.Since(start))
	}
	if err := c.WaitForCommits(ctx, 1000); !errors.Is(err, db.ErrStopped) {
		t.Fatalf("wait after Stop = %v after %v, want db.ErrStopped", err, time.Since(start))
	}
}

func TestShardRoutingSingleShard(t *testing.T) {
	c := newShardedCluster(t)
	if c.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", c.Shards())
	}
	if c.ShardOf("alpha") != 0 || c.ShardOf("beta") != 1 {
		t.Fatalf("pins not honoured: alpha on %d, beta on %d", c.ShardOf("alpha"), c.ShardOf("beta"))
	}
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ra, err := sess.Exec(ctx, "inc-alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Shard != 0 {
		t.Fatalf("inc-alpha ordered by shard %d, want 0", ra.Shard)
	}
	rb, err := sess.Exec(ctx, "inc-beta")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Shard != 1 {
		t.Fatalf("inc-beta ordered by shard %d, want 1", rb.Shard)
	}
	// The two shards order independently: both transactions start their
	// group's definitive order at index 1.
	if ra.TOIndex != 1 || rb.TOIndex != 1 {
		t.Fatalf("TO indexes %d/%d, want 1/1 (independent orders)", ra.TOIndex, rb.TOIndex)
	}
	for site := 0; site < 3; site++ {
		site := site
		waitUntil(t, 5*time.Second, fmt.Sprintf("site %d to apply both shards", site), func() bool {
			a, _ := readInt64(t, c, site, "alpha", "n")
			b, _ := readInt64(t, c, site, "beta", "n")
			return a == 1 && b == 1
		})
	}
}

func TestCrossShardCommit(t *testing.T) {
	c := newShardedCluster(t)
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(context.Background(), "transfer", otpdb.Int64(30))
	if err != nil {
		t.Fatal(err)
	}
	if got := otpdb.AsInt64(res.Value); got != 70 {
		t.Fatalf("transfer returned %d, want 70", got)
	}
	if res.Shard != 0 {
		t.Fatalf("home shard %d, want 0 (min touched)", res.Shard)
	}
	if len(res.ShardTO) != 2 || res.ShardTO[0].Shard != 0 || res.ShardTO[1].Shard != 1 {
		t.Fatalf("ShardTO %+v, want positions in shards 0 and 1", res.ShardTO)
	}
	if res.TOIndex != res.ShardTO[0].TOIndex {
		t.Fatalf("TOIndex %d != home position %d", res.TOIndex, res.ShardTO[0].TOIndex)
	}
	for site := 0; site < 3; site++ {
		site := site
		waitUntil(t, 5*time.Second, fmt.Sprintf("site %d to apply the transfer in both shards", site), func() bool {
			a, _ := readInt64(t, c, site, "alpha", "bal")
			b, _ := readInt64(t, c, site, "beta", "bal")
			return a == 70 && b == 30
		})
	}
	waitUntil(t, 5*time.Second, "convergence", func() bool {
		ok, err := c.Converged()
		return err == nil && ok
	})
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardAbortPropagation forces shard 1 to vote NO (its phase-0
// read is invalidated by a conflicting single-shard commit) and verifies
// the abort reaches shard 0 too: the YES-voting shard applies nothing
// from the aborted attempt.
func TestCrossShardAbortPropagation(t *testing.T) {
	ctx := context.Background()
	var sess *otpdb.Session
	var bumped atomic.Bool
	// mirror reads beta/n and writes an alpha key NAMED after the value
	// read, so each attempt's shard-0 write is distinguishable. On the
	// first attempt only, it commits a conflicting single-shard update to
	// beta AFTER capturing the read — guaranteeing stale validation.
	// (Phase 0 runs only in the coordinating process, so the side effect
	// is safe; sess is assigned before any submission.)
	c := newShardedClusterWith(t, func(c *otpdb.Cluster) {
		c.MustRegisterMultiUpdate(otpdb.MultiUpdate{
			Name:    "mirror",
			Classes: []otpdb.Class{"alpha", "beta"},
			Fn: func(mctx otpdb.MultiUpdateCtx) (otpdb.Value, error) {
				vb, _ := mctx.Read("beta", "n")
				n := otpdb.AsInt64(vb)
				if bumped.CompareAndSwap(false, true) {
					if _, err := sess.Exec(ctx, "inc-beta"); err != nil {
						return nil, err
					}
				}
				key := otpdb.Key(fmt.Sprintf("mark-%d", n))
				if err := mctx.Write("alpha", key, otpdb.Int64(n)); err != nil {
					return nil, err
				}
				if err := mctx.Write("beta", "mirrored", otpdb.Int64(n)); err != nil {
					return nil, err
				}
				return otpdb.Int64(n), nil
			},
		})
	})
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(ctx, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != otpdb.Retried {
		t.Fatalf("outcome %v, want retried (first attempt must abort)", res.Outcome)
	}
	if got := otpdb.AsInt64(res.Value); got != 1 {
		t.Fatalf("committed attempt read beta/n = %d, want 1 (post-bump)", got)
	}
	for site := 0; site < 3; site++ {
		site := site
		waitUntil(t, 5*time.Second, fmt.Sprintf("site %d to apply the retried attempt", site), func() bool {
			_, ok := readInt64(t, c, site, "alpha", "mark-1")
			return ok
		})
		// The aborted attempt's shard-0 write must not exist anywhere,
		// even though shard 0 voted YES on it.
		if _, ok := readInt64(t, c, site, "alpha", "mark-0"); ok {
			t.Fatalf("site %d: aborted attempt's write alpha/mark-0 was applied", site)
		}
		// Shard 1 commits the attempt on its own schedule: alpha/mark-1
		// being there says nothing about beta yet.
		waitUntil(t, 5*time.Second, fmt.Sprintf("site %d: beta/mirrored = 1", site), func() bool {
			v, _ := readInt64(t, c, site, "beta", "mirrored")
			return v == 1
		})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardCoordinatorCrashBeforeDecide crashes the coordinator at
// the classic 2PC in-doubt point (votes collected, decision unsent). The
// resolver must presume abort: no shard applies any write, and the
// touched classes un-wedge for later transactions.
func TestCrossShardCoordinatorCrashBeforeDecide(t *testing.T) {
	c := newShardedCluster(t)
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var crashed atomic.Bool
	c.SetCrashBeforeDecide(func() bool { return crashed.CompareAndSwap(false, true) })
	if _, err := sess.Exec(ctx, "transfer", otpdb.Int64(30)); err == nil {
		t.Fatal("crashed coordinator reported success")
	}
	// The resolver (resolve-after 900ms) aborts the orphaned prepares;
	// afterwards a fresh transaction on the same classes must commit,
	// proving the class queues were released.
	res, err := sess.Exec(ctx, "transfer", otpdb.Int64(10))
	if err != nil {
		t.Fatalf("transfer after resolved abort: %v", err)
	}
	if got := otpdb.AsInt64(res.Value); got != 90 {
		t.Fatalf("balance after crash + one transfer = %d, want 90 (crashed attempt must not debit)", got)
	}
	for site := 0; site < 3; site++ {
		site := site
		waitUntil(t, 5*time.Second, fmt.Sprintf("site %d consistency", site), func() bool {
			a, _ := readInt64(t, c, site, "alpha", "bal")
			b, _ := readInt64(t, c, site, "beta", "bal")
			return a == 90 && b == 10
		})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardCoordinatorCrashAfterHomeDecide crashes the coordinator
// right after the decision record commits at the home shard. The
// decision is durable truth: every shard must still apply the writes —
// never commit in one shard while aborting in another.
func TestCrossShardCoordinatorCrashAfterHomeDecide(t *testing.T) {
	c := newShardedCluster(t)
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	var crashed atomic.Bool
	c.SetCrashAfterHomeDecide(func() bool { return crashed.CompareAndSwap(false, true) })
	if _, err := sess.Exec(context.Background(), "transfer", otpdb.Int64(30)); err == nil {
		t.Fatal("crashed coordinator reported success")
	}
	// The commit decision was recorded before the crash, so the transfer
	// must land in BOTH shards at every site.
	for site := 0; site < 3; site++ {
		site := site
		waitUntil(t, 5*time.Second, fmt.Sprintf("site %d to apply the decided transfer", site), func() bool {
			a, _ := readInt64(t, c, site, "alpha", "bal")
			b, _ := readInt64(t, c, site, "beta", "bal")
			return a == 70 && b == 30
		})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardDigestConvergenceUnderJitter mixes single- and cross-shard
// traffic over a jittery network and verifies every shard's replicas
// converge to identical digests.
func TestShardDigestConvergenceUnderJitter(t *testing.T) {
	c := newShardedCluster(t, otpdb.WithNetworkJitter(1500*time.Microsecond))
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var handles []*otpdb.Handle
	for i := 0; i < 30; i++ {
		ha, err := sess.SubmitAsync("inc-alpha")
		if err != nil {
			t.Fatal(err)
		}
		hb, err := sess.SubmitAsync("inc-beta")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, ha, hb)
		if i%10 == 0 {
			hx, err := sess.SubmitAsync("transfer", otpdb.Int64(1))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, hx)
		}
	}
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "digest convergence", func() bool {
		ok, err := c.Converged()
		return err == nil && ok
	})
	for g := 0; g < 2; g++ {
		d0, err := c.ShardDigest(0, g)
		if err != nil {
			t.Fatal(err)
		}
		for site := 1; site < 3; site++ {
			d, err := c.ShardDigest(site, g)
			if err != nil {
				t.Fatal(err)
			}
			if d != d0 {
				t.Fatalf("shard %d digest diverges at site %d", g, site)
			}
		}
	}
	a, _ := readInt64(t, c, 0, "alpha", "n")
	b, _ := readInt64(t, c, 0, "beta", "n")
	if a != 30 || b != 30 {
		t.Fatalf("counters %d/%d, want 30/30", a, b)
	}
	bal, _ := readInt64(t, c, 0, "alpha", "bal")
	if bal != 97 {
		t.Fatalf("alpha/bal = %d, want 97 after 3 unit transfers", bal)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiShardQuery runs a read-only procedure spanning both shards:
// one pinned snapshot per shard, consistent within each.
func TestMultiShardQuery(t *testing.T) {
	c, err := otpdb.NewCluster(
		otpdb.WithReplicas(3),
		otpdb.WithShards(2),
		otpdb.WithCrossShardTimeouts(500*time.Millisecond, 900*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PinClass("alpha", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PinClass("beta", 1); err != nil {
		t.Fatal(err)
	}
	c.MustRegisterUpdate(otpdb.Update{
		Name:  "set-alpha",
		Class: "alpha",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			return nil, ctx.Write("k", ctx.Args()[0])
		},
	})
	c.MustRegisterUpdate(otpdb.Update{
		Name:  "set-beta",
		Class: "beta",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			return nil, ctx.Write("k", ctx.Args()[0])
		},
	})
	c.MustRegisterQuery(otpdb.Query{
		Name: "sum",
		Fn: func(ctx otpdb.QueryCtx) (otpdb.Value, error) {
			a, _ := ctx.Read("alpha", "k")
			b, _ := ctx.Read("beta", "k")
			return otpdb.Int64(otpdb.AsInt64(a) + otpdb.AsInt64(b)), nil
		},
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	sess, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Exec(ctx, "set-alpha", otpdb.Int64(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "set-beta", otpdb.Int64(2)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "site 1 to apply both writes", func() bool {
		a, _ := readInt64(t, c, 1, "alpha", "k")
		b, _ := readInt64(t, c, 1, "beta", "k")
		return a == 40 && b == 2
	})
	v, err := sess.Query(ctx, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if got := otpdb.AsInt64(v); got != 42 {
		t.Fatalf("sum = %d, want 42", got)
	}
}

// TestCrossShardSingleShardFallthrough: a multi-class procedure whose
// classes co-locate on one shard takes the ordinary single-group path.
func TestCrossShardSingleShardFallthrough(t *testing.T) {
	c := newShardedClusterWith(t, func(c *otpdb.Cluster) {
		c.MustRegisterMultiUpdate(otpdb.MultiUpdate{
			Name:    "both-alpha",
			Classes: []otpdb.Class{"alpha"},
			Fn: func(ctx otpdb.MultiUpdateCtx) (otpdb.Value, error) {
				v, _ := ctx.Read("alpha", "bal")
				return v, nil
			},
		})
	})
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(context.Background(), "transfer", otpdb.Int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard != 0 || len(res.ShardTO) != 2 {
		t.Fatalf("transfer should be cross-shard: %+v", res)
	}
	res2, err := sess.Exec(context.Background(), "both-alpha")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Shard != 0 || res2.ShardTO != nil {
		t.Fatalf("single-shard multi-update took the cross path: %+v", res2)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("unexpected deadline")
	}
}
