package otpdb_test

import (
	"fmt"
	"testing"
	"time"

	"otpdb"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// waitEpoch waits until every listed site reports at least the given
// epoch, or fails at the deadline.
func waitEpoch(t *testing.T, c *otpdb.Cluster, epoch uint64, deadline time.Duration, sites ...int) {
	t.Helper()
	testutil.EventuallyOr(t, deadline, fmt.Sprintf("epoch %d on sites %v", epoch, sites), func() bool {
		for _, s := range sites {
			if e, err := c.Epoch(s); err != nil || e < epoch {
				return false
			}
		}
		return true
	}, func() {
		for _, s := range sites {
			e, _ := c.Epoch(s)
			t.Logf("site %d epoch %d", s, e)
		}
	})
}

// waitRebuilt waits until no site is in the crashed set.
func waitRebuilt(t *testing.T, c *otpdb.Cluster, deadline time.Duration) {
	t.Helper()
	testutil.EventuallyOr(t, deadline, "crashed sites to be rebuilt", func() bool {
		return len(c.CrashedSites()) == 0
	}, func() {
		t.Logf("still crashed: %v", c.CrashedSites())
	})
}

// TestAutoReplaceHealsCrashedSite: with WithAutoReplace armed, a crashed
// site is replaced and rebuilt with no operator action — the acceptance
// scenario of the self-healing loop. The replacement then serves
// transactions in agreement with the survivors.
func TestAutoReplaceHealsCrashedSite(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithAutoReplace(150*time.Millisecond))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 0, 10, 10)

	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	// No RestartSite, no ReplaceSite: the detectors and replacers do it.
	waitEpoch(t, c, 2, time.Minute, 0, 1)

	// The rebuild follows the epoch commit; wait for the site to be live
	// again before using it.
	waitRebuilt(t, c, time.Minute)
	creditN(t, c, 2, 1, 12) // 11 credits + 1 membership change
	assertConverged(t, c)
	if mode, err := c.RejoinMode(2); err != nil || mode == "" {
		t.Fatalf("RejoinMode = %q, %v (replacement did not rejoin through statex)", mode, err)
	}
}

// TestAutoReplaceExactlyOnce: four racing survivors notice the crash
// together; exactly one ReplaceSite commits (the epoch advances by one)
// and the losers back off on ErrEpochConflict instead of stacking
// further epochs.
func TestAutoReplaceExactlyOnce(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(5), otpdb.WithAutoReplace(150*time.Millisecond))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 0, 5, 5)

	if err := c.CrashSite(4); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, c, 2, time.Minute, 0, 1, 2, 3)
	waitRebuilt(t, c, time.Minute)
	// Let any straggler replacer round drain, then require the epoch to
	// have settled at exactly 2: one replacement, not one per survivor.
	time.Sleep(500 * time.Millisecond)
	for _, s := range []int{0, 1, 2, 3, 4} {
		e, err := c.Epoch(s)
		if err != nil {
			t.Fatal(err)
		}
		if e != 2 {
			t.Fatalf("site %d epoch = %d, want exactly 2 (racing replacers stacked epochs)", s, e)
		}
	}
	creditN(t, c, 4, 1, 7) // 6 credits + 1 membership change
	assertConverged(t, c)
}

// TestAutoReplaceSparesPartitionedSite: a partitioned-but-alive site is
// suspected (its heartbeats stop arriving) but never replaced — only a
// transport-level crash qualifies. After the heal the site is simply a
// member again, state intact.
func TestAutoReplaceSparesPartitionedSite(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithAutoReplace(100*time.Millisecond))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 0, 5, 5)

	f := c.Fault()
	if err := f.Partition(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition(2, 1); err != nil {
		t.Fatal(err)
	}
	// Several full suspicion windows pass; the replacers see the
	// suspicion but must hold fire.
	time.Sleep(600 * time.Millisecond)
	for _, s := range []int{0, 1} {
		e, err := c.Epoch(s)
		if err != nil {
			t.Fatal(err)
		}
		if e != 1 {
			t.Fatalf("site %d epoch = %d: a live site was replaced over a partition", s, e)
		}
	}
	if err := f.HealAll(); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 0, 1, 6)
	assertConverged(t, c)
}

// TestAutoReplaceIgnoresGhostHeartbeats: replayed heartbeats from the
// dead incarnation must not refresh its lease and stall the
// replacement. The ghosts carry a stale incarnation, so detectors drop
// them and the replacement proceeds.
func TestAutoReplaceIgnoresGhostHeartbeats(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3), otpdb.WithAutoReplace(150*time.Millisecond))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	creditN(t, c, 0, 5, 5)
	// The survivors must have heard the live incarnation of site 2 before
	// it dies: a ghost is only recognisable next to a newer incarnation,
	// and five commits now take less than one heartbeat interval.
	time.Sleep(100 * time.Millisecond)
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	// A reconnecting transport replaying the dead process's backlog:
	// periodic stale heartbeats at every survivor.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = c.Fault().GhostHeartbeat(2, 0)
				_ = c.Fault().GhostHeartbeat(2, 1)
			}
		}
	}()
	waitEpoch(t, c, 2, time.Minute, 0, 1)
	close(stop)
	<-done
	waitRebuilt(t, c, time.Minute)
	assertConverged(t, c)
}

// TestFaultInjectorValidation: the injector rejects out-of-range sites
// and an unstarted cluster rather than panicking mid-scenario.
func TestFaultInjectorValidation(t *testing.T) {
	c := accountsCluster(t, otpdb.WithReplicas(3))
	f := c.Fault()
	if err := f.Partition(0, 1); err == nil {
		t.Fatal("Partition before Start succeeded")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition(0, 7); err == nil {
		t.Fatal("Partition with out-of-range site succeeded")
	}
	if err := f.StallCommits(-1, time.Millisecond); err == nil {
		t.Fatal("StallCommits with negative site succeeded")
	}
	if err := f.SetLink(0, 1, transport.LinkProfile{Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := f.ClearLinks(); err != nil {
		t.Fatal(err)
	}
}
