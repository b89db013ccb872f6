package otpdb_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"otpdb"
)

// accountsCluster registers a small banking schema on a fresh cluster.
func accountsCluster(t *testing.T, opts ...otpdb.Option) *otpdb.Cluster {
	t.Helper()
	c, err := otpdb.NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return withAccounts(t, c)
}

// withAccounts registers the banking schema on c and stops c when the
// test ends.
func withAccounts(t *testing.T, c *otpdb.Cluster) *otpdb.Cluster {
	c.MustRegisterUpdate(otpdb.Update{
		Name:  "credit",
		Class: "accounts",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			acct := otpdb.Key(otpdb.AsString(ctx.Args()[0]))
			amount := otpdb.AsInt64(ctx.Args()[1])
			v, _ := ctx.Read(acct)
			next := otpdb.Int64(otpdb.AsInt64(v) + amount)
			return next, ctx.Write(acct, next)
		},
	})
	c.MustRegisterQuery(otpdb.Query{
		Name: "balance",
		Fn: func(ctx otpdb.QueryCtx) (otpdb.Value, error) {
			v, _ := ctx.Read("accounts", otpdb.Key(otpdb.AsString(ctx.Args()[0])))
			return v, nil
		},
	})
	t.Cleanup(c.Stop)
	return c
}

func TestClusterLifecycle(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); !errors.Is(err, otpdb.ErrStarted) {
		t.Fatalf("second Start = %v", err)
	}
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	c.Stop()
	c.Stop() // idempotent
}

func TestExecAndReadBack(t *testing.T) {
	c := accountsCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Exec(ctx, 0, "credit", otpdb.String("alice"), otpdb.Int64(100)); err != nil {
		t.Fatal(err)
	}
	v, err := c.QueryAt(ctx, 0, "balance", otpdb.String("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if otpdb.AsInt64(v) != 100 {
		t.Fatalf("balance = %d", otpdb.AsInt64(v))
	}
}

func TestAllReplicasConverge(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithHistoryRecording(),
		otpdb.WithNetworkJitter(time.Millisecond))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	const perSite = 10
	for site := 0; site < 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < perSite; i++ {
				acct := fmt.Sprintf("acct%d", i%2)
				if err := c.Exec(ctx, site, "credit", otpdb.String(acct), otpdb.Int64(1)); err != nil {
					t.Errorf("site %d: %v", site, err)
					return
				}
			}
		}(site)
	}
	wg.Wait()
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := c.WaitForCommits(wctx, 3*perSite); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Converged()
	if err != nil || !ok {
		t.Fatalf("converged = %v, %v", ok, err)
	}
	if err := c.CheckHistory(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Each account credited 3*perSite/2 times at every site.
	for site := 0; site < 3; site++ {
		for a := 0; a < 2; a++ {
			v, okRead, err := c.Read(site, "accounts", otpdb.Key(fmt.Sprintf("acct%d", a)))
			if err != nil || !okRead {
				t.Fatal(err)
			}
			if otpdb.AsInt64(v) != 3*perSite/2 {
				t.Fatalf("site %d acct%d = %d", site, a, otpdb.AsInt64(v))
			}
		}
	}
}

// TestConservativeOrderingWorksToo: ConservativeOrdering is the same stack
// with a different delivery policy, so everything a cluster can live
// through it lives through under it — a crashed site rejoins, the head is
// replaced, the self-healing loop is accepted and heals — and nothing ever
// aborts on the way.
func TestConservativeOrderingWorksToo(t *testing.T) {
	conservative := otpdb.WithOrdering(otpdb.ConservativeOrdering)
	t.Run("restart and replace", func(t *testing.T) {
		c := accountsCluster(t, otpdb.WithReplicas(3), conservative, otpdb.WithHistoryRecording())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		ctx := memCtx(t)
		creditN(t, c, 0, 10, 10)
		if err := c.CrashSite(2); err != nil {
			t.Fatal(err)
		}
		creditN(t, c, 1, 10, 20)
		if err := c.RestartSite(ctx, 2); err != nil {
			t.Fatal(err)
		}
		creditN(t, c, 2, 10, 30)

		// The head goes: site 0 coordinates round 0 of every stage.
		if err := c.CrashSite(0); err != nil {
			t.Fatal(err)
		}
		creditN(t, c, 1, 10, 40)
		if err := c.ReplaceSite(ctx, 0); err != nil {
			t.Fatal(err)
		}
		assertEpoch(t, c, 2, 3, 0, 1, 2)
		creditN(t, c, 0, 10, 51) // 50 credits + 1 membership change
		assertConverged(t, c)
		for site := 0; site < 3; site++ {
			if st, err := c.SiteStats(site); err != nil || st.Aborts != 0 || st.Reorders != 0 {
				t.Fatalf("site %d: %+v, %v; conservative delivery has no tentative order to get wrong", site, st, err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckHistory(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("auto-replace", func(t *testing.T) {
		c := accountsCluster(t, otpdb.WithReplicas(3), conservative, otpdb.WithAutoReplace(150*time.Millisecond))
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		creditN(t, c, 0, 10, 10)
		if err := c.CrashSite(2); err != nil {
			t.Fatal(err)
		}
		waitEpoch(t, c, 2, time.Minute, 0, 1)
		waitRebuilt(t, c, time.Minute)
		creditN(t, c, 2, 1, 12) // 11 credits + 1 membership change
		assertConverged(t, c)
	})
}

// TestSeedLoadsInitialState: a seed reads at every site, a key seeded
// twice reads its second value, and a nil seed reads as absent.
func TestSeedLoadsInitialState(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(2))
	for _, s := range []struct {
		key   otpdb.Key
		value otpdb.Value
	}{{"alice", otpdb.Int64(1)}, {"gone", nil}, {"alice", otpdb.Int64(500)}} {
		if err := c.Seed("accounts", s.key, s.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 2; site++ {
		v, ok, err := c.Read(site, "accounts", "alice")
		if err != nil || !ok || otpdb.AsInt64(v) != 500 {
			t.Fatalf("site %d: %v %v %v", site, otpdb.AsInt64(v), ok, err)
		}
		if v, ok, err := c.Read(site, "accounts", "gone"); err != nil || ok {
			t.Fatalf("site %d: nil seed reads %q, %v, %v; want absent", site, v, ok, err)
		}
	}
	if err := c.Seed("accounts", "late", nil); !errors.Is(err, otpdb.ErrStarted) {
		t.Fatalf("late seed = %v", err)
	}
}

// TestSeedCopiesValue reuses one buffer for two seeds: each key keeps
// the value it had when Seed was called.
func TestSeedCopiesValue(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(2))
	buf := otpdb.Value("one")
	if err := c.Seed("accounts", "a", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "two")
	if err := c.Seed("accounts", "b", buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 2; site++ {
		for key, want := range map[otpdb.Key]string{"a": "one", "b": "two"} {
			if v, ok, err := c.Read(site, "accounts", key); err != nil || !ok || string(v) != want {
				t.Fatalf("site %d: %s = %q, %v, %v; want %q", site, key, v, ok, err, want)
			}
		}
	}
}

// TestSeedLandsOnPinnedShard seeds a class, then pins it away from the
// shard its hash picks: the seed follows the pin, since Start groups the
// seeds after every PinClass.
func TestSeedLandsOnPinnedShard(t *testing.T) {
	c, err := otpdb.NewCluster(otpdb.WithReplicas(2), otpdb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	const class = "pinned"
	pinned := 1 - c.ShardOf(class)
	if err := c.Seed(class, "k", otpdb.Int64(7)); err != nil {
		t.Fatal(err)
	}
	if err := c.PinClass(class, pinned); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 2; site++ {
		if v, ok, err := c.Read(site, class, "k"); err != nil || !ok || otpdb.AsInt64(v) != 7 {
			t.Fatalf("site %d: k = %d, %v, %v; want 7", site, otpdb.AsInt64(v), ok, err)
		}
		// Both shards hold the same bootstrap configuration and nothing
		// else but the seed, so equal digests would mean the seed landed
		// in both.
		on, err1 := c.ShardDigest(site, pinned)
		off, err2 := c.ShardDigest(site, 1-pinned)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if on == off {
			t.Fatalf("site %d: shard %d holds the seed pinned to shard %d", site, 1-pinned, pinned)
		}
	}
}

// TestSeededKeysSurviveCommitsAndRestart commits to seeded keys at every
// site and restarts one: the sites converge, written keys hold their
// commits and the keys nobody wrote still read their seed everywhere.
func TestSeededKeysSurviveCommitsAndRestart(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3))
	const keys = 64
	key := func(i int) otpdb.Key { return otpdb.Key(fmt.Sprintf("k%02d", i)) }
	for i := 0; i < keys; i++ {
		if err := c.Seed("accounts", key(i), otpdb.Int64(100+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := memCtx(t)
	credit := func(site, i int) {
		t.Helper()
		if err := c.Exec(ctx, site, "credit", otpdb.String(string(key(i))), otpdb.Int64(1000)); err != nil {
			t.Fatal(err)
		}
	}
	for site := 0; site < 3; site++ {
		credit(site, site)
	}
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	credit(0, 3)
	if err := c.RestartSite(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// The restarted site commits too: its first broadcast must not reuse
	// the ID of the one it sent before the crash.
	credit(2, 4)
	if err := c.WaitForCommits(ctx, 5); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, c)
	for site := 0; site < 3; site++ {
		for i := 0; i < keys; i++ {
			want := 100 + int64(i)
			if i <= 4 {
				want += 1000
			}
			if v, ok, err := c.Read(site, "accounts", key(i)); err != nil || !ok || otpdb.AsInt64(v) != want {
				t.Fatalf("site %d: %s = %d, %v, %v; want %d", site, key(i), otpdb.AsInt64(v), ok, err, want)
			}
		}
	}
}

func TestRegistrationAfterStartRejected(t *testing.T) {
	c := accountsCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	err := c.RegisterUpdate(otpdb.Update{Name: "late", Class: "c", Fn: func(otpdb.UpdateCtx) (otpdb.Value, error) { return nil, nil }})
	if !errors.Is(err, otpdb.ErrStarted) {
		t.Fatalf("err = %v", err)
	}
	if err := c.RegisterQuery(otpdb.Query{Name: "lateq", Fn: func(otpdb.QueryCtx) (otpdb.Value, error) { return nil, nil }}); !errors.Is(err, otpdb.ErrStarted) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadSiteErrors(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(2))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Exec(ctx, 9, "credit", otpdb.String("a"), otpdb.Int64(1)); !errors.Is(err, otpdb.ErrBadSite) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.QueryAt(ctx, -1, "balance", otpdb.String("a")); !errors.Is(err, otpdb.ErrBadSite) {
		t.Fatalf("err = %v", err)
	}
}

func TestNotStartedErrors(t *testing.T) {
	c := accountsCluster(t)
	ctx := context.Background()
	if err := c.Exec(ctx, 0, "credit"); !errors.Is(err, otpdb.ErrNotStarted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Converged(); !errors.Is(err, otpdb.ErrNotStarted) {
		t.Fatalf("err = %v", err)
	}
}

func TestSiteStatsExposesCounters(t *testing.T) {
	c := accountsCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Exec(ctx, 0, "credit", otpdb.String("a"), otpdb.Int64(1)); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := c.WaitForCommits(wctx, 1); err != nil {
		t.Fatal(err)
	}
	st, err := c.SiteStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOpenReopens drives the embedded entry point: Open, register,
// Start, commit, Stop, then Open the same directory again. The second
// Start resumes at the first one's last commit with its state.
func TestOpenReopens(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 5
	c, err := otpdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	withAccounts(t, c)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Exec(ctx, 0, "credit", otpdb.String("alice"), otpdb.Int64(10)); err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()

	c, err = otpdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	withAccounts(t, c)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if idx, err := c.RecoveredIndex(0); err != nil || idx != n {
		t.Fatalf("RecoveredIndex(0) = %d, %v; want %d", idx, err, n)
	}
	v, err := c.QueryAt(ctx, 0, "balance", otpdb.String("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if got := otpdb.AsInt64(v); got != 10*n {
		t.Fatalf("balance after reopen = %d, want %d", got, 10*n)
	}
}

// holdingCluster is a one-site accounts cluster whose "hold" update keeps
// the accounts class busy for 2 s; hold is submitted before it returns.
func holdingCluster(t *testing.T) *otpdb.Cluster {
	t.Helper()
	c := accountsCluster(t, otpdb.WithReplicas(1))
	c.MustRegisterUpdate(otpdb.Update{
		Name:  "hold",
		Class: "accounts",
		Cost:  2 * time.Second,
		Fn:    func(otpdb.UpdateCtx) (otpdb.Value, error) { return nil, nil },
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(0, "hold"); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWaitForCommitsHonoursCancel: cancelling the context ends a
// WaitForCommits that a held class keeps waiting, with the context's
// error, long before the class commits.
func TestWaitForCommitsHonoursCancel(t *testing.T) {
	c := holdingCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.WaitForCommits(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitForCommits = %v, want %v", err, context.DeadlineExceeded)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("WaitForCommits returned %v after its context ended", took)
	}
}

// TestQueryWaitHonoursCancel: a §5 query that waits for a held class to
// commit returns the context's error as soon as the context ends.
func TestQueryWaitHonoursCancel(t *testing.T) {
	c := holdingCluster(t)
	// The query waits only once hold is TO-delivered; until then it
	// reads at once, and the loop tries again.
	for deadline := time.Now().Add(5 * time.Second); ; {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := c.QueryAt(ctx, 0, "balance", otpdb.String("alice"))
		took := time.Since(start)
		cancel()
		if took > time.Second {
			t.Fatalf("query returned %v, %v after its context ended", err, took)
		}
		if err == nil && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query = %v, want %v", err, context.DeadlineExceeded)
		}
		return
	}
}

func TestCheckHistoryRequiresOption(t *testing.T) {
	c := accountsCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckHistory(); err == nil {
		t.Fatal("CheckHistory without recording succeeded")
	}
}

func TestValueHelpersRoundTrip(t *testing.T) {
	if otpdb.AsInt64(otpdb.Int64(-7)) != -7 {
		t.Fatal("int64 round trip")
	}
	if otpdb.AsString(otpdb.String("hello")) != "hello" {
		t.Fatal("string round trip")
	}
}
