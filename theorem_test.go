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
//
// Under ConservativeOrdering the same workload over the same broadcast has
// nothing to lose: a transaction is delivered in its definitive position,
// so no site aborts anything and every client sees the fast path.
func TestTheoremOnHotAbortPath(t *testing.T) {
	for _, ord := range orderings {
		t.Run(ord.name, func(t *testing.T) { hotAbortPath(t, ord.ordering) })
	}
}

// orderings is the table for tests that must hold whichever way the
// broadcast delivers.
var orderings = []struct {
	name     string
	ordering otpdb.Ordering
}{
	{"optimistic", otpdb.OptimisticOrdering},
	{"conservative", otpdb.ConservativeOrdering},
}

func hotAbortPath(t *testing.T, ordering otpdb.Ordering) {
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
			c := crossBranchCluster(t, otpdb.WithReplicas(3), otpdb.WithHistoryRecording(), otpdb.WithOrdering(ordering),
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
				sess, err := c.Session(site)
				if err != nil {
					t.Fatal(err)
				}
				clients.Add(1)
				go func() {
					defer clients.Done()
					for i := 0; i < perClient; i++ {
						proc, args := w.next(i)
						res, err := sess.Exec(ctx, proc, args...)
						if err != nil {
							t.Errorf("site %d txn %d: %v", site, i, err)
							return
						}
						if ordering == otpdb.ConservativeOrdering && res.Outcome != otpdb.FastPath {
							t.Errorf("site %d txn %d: outcome %v under conservative ordering", site, i, res.Outcome)
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
			switch {
			case ordering == otpdb.ConservativeOrdering && aborts != 0:
				t.Fatalf("%d aborts under conservative ordering", aborts)
			case ordering == otpdb.OptimisticOrdering && 20*aborts <= commits:
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

// TestTheoremAcrossRestart checks the theorem over a site's two lives. A
// volatile site that crashes and rejoins is handed the definitive history
// from the start and commits its old prefix a second time; the recorder
// must take that for what it is — the same replica agreeing with itself —
// and still hold each life to the definitive order.
func TestTheoremAcrossRestart(t *testing.T) {
	for _, ord := range orderings {
		t.Run(ord.name, func(t *testing.T) {
			c := crossBranchCluster(t, otpdb.WithReplicas(3), otpdb.WithHistoryRecording(), otpdb.WithOrdering(ord.ordering))
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			// round commits perClient deposits from each of sites 0 and 1.
			const perClient = 40
			total := 0
			round := func() {
				t.Helper()
				var clients sync.WaitGroup
				for site := 0; site < 2; site++ {
					clients.Add(1)
					go func() {
						defer clients.Done()
						for i := 0; i < perClient; i++ {
							if err := c.Exec(ctx, site, "deposit-east", otpdb.String("acct"), otpdb.Int64(1)); err != nil {
								t.Errorf("site %d txn %d: %v", site, i, err)
								return
							}
						}
					}()
				}
				clients.Wait()
				if t.Failed() {
					t.FailNow()
				}
				total += 2 * perClient
				if err := c.WaitForCommits(ctx, total); err != nil {
					t.Fatal(err)
				}
			}

			round()
			if err := c.CrashSite(2); err != nil {
				t.Fatal(err)
			}
			round()
			if err := c.RestartSite(ctx, 2); err != nil {
				t.Fatal(err)
			}
			round()

			for site := 0; site < 3; site++ {
				if v, _, err := c.Read(site, "east", "acct"); err != nil || otpdb.AsInt64(v) != int64(total) {
					t.Fatalf("site %d: balance %d, %v; want %d", site, otpdb.AsInt64(v), err, total)
				}
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
