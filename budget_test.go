package otpdb_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"otpdb"
)

// Ceilings of TestCommitPathAllocBudget: heap allocations and bytes per
// commit, summed over the client and the three replicas. Measured 29 – 31
// and 1 550 – 1 970 on go1.24 linux/amd64 (at the parent of the change that
// introduced them: 90 and 6 300, with the live heap growing by 630 bytes a
// commit); the ceilings are the highest of those plus a quarter.
const (
	budgetMallocsPerCommit = 39
	budgetBytesPerCommit   = 2500
)

// budgetCluster is three replicas over a zero-delay memnet with eight
// conflict classes of 64 keys, and a client that keeps depth transactions
// in flight at site 0.
type budgetCluster struct {
	t       *testing.T
	sess    *otpdb.Session
	handles []*otpdb.Handle
	next    int
}

func newBudgetCluster(t *testing.T, depth int, opts ...otpdb.Option) *budgetCluster {
	t.Helper()
	c, err := otpdb.NewCluster(append([]otpdb.Option{otpdb.WithReplicas(3)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for class := 0; class < 8; class++ {
		c.MustRegisterUpdate(otpdb.Update{
			Name:  fmt.Sprintf("put%d", class),
			Class: otpdb.Class(fmt.Sprintf("c%d", class)),
			Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
				key := otpdb.Key(ctx.Args()[0])
				v, _ := ctx.Read(key)
				next := otpdb.Int64(otpdb.AsInt64(v) + 1)
				return nil, ctx.Write(key, next)
			},
		})
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	return &budgetCluster{t: t, sess: sess, handles: make([]*otpdb.Handle, depth)}
}

var budgetKeys = func() []otpdb.Value {
	keys := make([]otpdb.Value, 64)
	for i := range keys {
		keys[i] = otpdb.Value(fmt.Sprintf("k%02d", i))
	}
	return keys
}()

var budgetProcs = []string{"put0", "put1", "put2", "put3", "put4", "put5", "put6", "put7"}

// commit runs n transactions through the pipeline and waits for them all.
func (b *budgetCluster) commit(n int) {
	b.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	wait := func(slot int) {
		if h := b.handles[slot]; h != nil {
			if _, err := h.Wait(ctx); err != nil {
				b.t.Fatal(err)
			}
			b.handles[slot] = nil
		}
	}
	for i := 0; i < n; i++ {
		slot := b.next % len(b.handles)
		wait(slot)
		h, err := b.sess.SubmitAsync(budgetProcs[b.next%8], budgetKeys[b.next/8%64])
		if err != nil {
			b.t.Fatal(err)
		}
		b.handles[slot] = h
		b.next++
	}
	for slot := range b.handles {
		wait(slot)
	}
}

// TestCommitPathAllocBudget holds DESIGN.md §6 rule 3 — the steady state
// allocates O(1) per transaction, and keeps nothing — to numbers: what a
// commit allocates stays under a ceiling, and once every bounded window is
// full the heap in use does not grow with the commits.
func TestCommitPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("190k commits")
	}
	const commits = 50_000
	b := newBudgetCluster(t, 32, otpdb.WithDefLogCap(1024))
	b.commit(5_000) // pools, queues and chunk tables reach their size

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.commit(commits)
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / commits
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / commits
	t.Logf("per commit: %.1f allocations, %.0f bytes", mallocs, bytes)
	if raceEnabled {
		// sync.Pool drops a quarter of what it is handed under the race
		// detector; the ceilings are for the pools working.
		t.Log("race detector on: ceilings not applied")
	} else if mallocs > budgetMallocsPerCommit || bytes > budgetBytesPerCommit {
		t.Errorf("a commit allocates %.1f objects and %.0f bytes, budget %d and %d",
			mallocs, bytes, budgetMallocsPerCommit, budgetBytesPerCommit)
	}
	if raceEnabled {
		return
	}

	// The windows that are meant to fill — the definitive ring (1 024
	// here), the scheduler's commit log and consensus's decision horizon
	// (64Ki commits and instances) — are full after 64Ki one-message
	// stages; from there on the same number of commits again must leave
	// the heap where it is.
	const window = 1 << 16
	live := func() float64 {
		runtime.GC()
		runtime.GC() // the first may have started before the last commit
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		// HeapAlloc, not HeapInuse: after a collection it is the bytes
		// of live objects, where HeapInuse counts whole spans and moves
		// by a tenth with how the survivors happen to be spread.
		return float64(m.HeapAlloc) / (1 << 20)
	}
	b.handles = b.handles[:1]
	b.commit(window + window/16)
	full := live()
	b.commit(window)
	later := live()
	t.Logf("live heap: %.1f MiB with the windows full, %.1f MiB %d commits later", full, later, window)
	if later > 1.05*full {
		t.Errorf("the live heap grew from %.1f to %.1f MiB over %d commits", full, later, window)
	}
}
