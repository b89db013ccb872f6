package otpdb_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"otpdb"
)

// TestTheoremOnHotAbortPath checks Theorem 4.2 and the §5 query rules where
// the optimism loses most often. A site hears its own broadcast at once and
// everybody else's a message delay later, so two sites that submit
// conflicting transactions at about the same time each execute their own
// first, and the one the definitive order puts second aborts and runs again
// (CC8 of Figure 6). Two synchronous clients on one WAN-ish link do that
// all the time: the test requires the abort path to be hot — more than one
// abort per twenty commits — and then that nobody could tell: every
// transaction commits once at every site, the sites agree, the scheduler's
// invariants hold, and the recorded history, snapshot queries included, is
// 1-copy-serializable.
func TestTheoremOnHotAbortPath(t *testing.T) {
	const perClient = 150
	// next returns a client's i-th transaction: procedure and arguments.
	workloads := []struct {
		name     string
		deposits int // deposits per client; each adds 5 to the total
		next     func(i int) (string, []otpdb.Value)
	}{
		{"one class", perClient, func(int) (string, []otpdb.Value) {
			return "deposit-east", []otpdb.Value{otpdb.String("acct"), otpdb.Int64(5)}
		}},
		{"two classes", perClient * 2 / 3, func(i int) (string, []otpdb.Value) {
			switch i % 3 {
			case 0:
				return "deposit-east", []otpdb.Value{otpdb.String("acct"), otpdb.Int64(5)}
			case 1:
				return "deposit-west", []otpdb.Value{otpdb.String("acct"), otpdb.Int64(5)}
			}
			return "moveFunds", []otpdb.Value{
				otpdb.String("east"), otpdb.String("acct"),
				otpdb.String("west"), otpdb.String("acct"), otpdb.Int64(7)}
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := crossBranchCluster(t, otpdb.WithReplicas(3), otpdb.WithHistoryRecording(),
				otpdb.WithNetworkDelay(500*time.Microsecond), otpdb.WithNetworkJitter(200*time.Microsecond))
			for _, branch := range []otpdb.Class{"east", "west"} {
				if err := c.Seed(branch, "acct", otpdb.Int64(10000)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			// committed carries one token per commit; the buffer holds them all.
			committed := make(chan struct{}, 2*perClient)
			var clients sync.WaitGroup
			for site := 0; site < 2; site++ {
				clients.Add(1)
				go func() {
					defer clients.Done()
					for i := 0; i < perClient; i++ {
						proc, args := w.next(i)
						if err := c.Exec(ctx, site, proc, args...); err != nil {
							t.Errorf("site %d txn %d: %v", site, i, err)
							return
						}
						committed <- struct{}{}
					}
				}()
			}
			go func() {
				clients.Wait()
				close(committed)
			}()
			// A snapshot query at the site that submits nothing for every
			// commit a client sees, while that site is still applying it.
			// Transfers keep the total and a deposit adds 5, so a snapshot
			// that shows anything else is torn.
			final := int64(20000 + 5*2*w.deposits)
			queries := 0
			for range committed {
				v, err := c.QueryAt(ctx, 2, "bothTotals")
				if err != nil {
					t.Fatal(err)
				}
				if total := otpdb.AsInt64(v); total < 20000 || total > final || total%5 != 0 {
					t.Fatalf("query %d: torn snapshot total %d", queries, total)
				}
				queries++
			}
			if t.Failed() {
				return
			}
			if err := c.WaitForCommits(ctx, 2*perClient); err != nil {
				t.Fatal(err)
			}

			var commits, aborts uint64
			for site := 0; site < 3; site++ {
				st, err := c.SiteStats(site)
				if err != nil {
					t.Fatal(err)
				}
				if st.Commits != 2*perClient || st.Pending != 0 {
					t.Fatalf("site %d: %d commits, %d pending, want %d and 0", site, st.Commits, st.Pending, 2*perClient)
				}
				v, err := c.QueryAt(ctx, site, "bothTotals")
				if err != nil {
					t.Fatal(err)
				}
				if total := otpdb.AsInt64(v); total != final {
					t.Fatalf("site %d: total %d, want %d: a transaction's effect is missing or there twice", site, total, final)
				}
				commits += st.Commits
				aborts += st.Aborts
			}
			t.Logf("%d aborts in %d commits (%.1f %%), %d snapshot queries", aborts, commits, 100*float64(aborts)/float64(commits), queries)
			if 20*aborts <= commits {
				t.Fatalf("%d aborts in %d commits: the abort path was not exercised", aborts, commits)
			}
			if ok, err := c.Converged(); err != nil || !ok {
				t.Fatalf("converged = %v, %v", ok, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckHistory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
