package db_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/history"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// bankRegistry builds the test schema: `classes` conflict classes, each a
// partition holding `accounts` integer accounts, with deposit and
// transfer procedures per class and cross-class queries.
func bankRegistry(t *testing.T, classes, accounts int) *sproc.Registry {
	t.Helper()
	reg := sproc.NewRegistry()
	for c := 0; c < classes; c++ {
		class := sproc.ClassID(fmt.Sprintf("c%d", c))
		// deposit-<class>(account, amount)
		if err := reg.RegisterUpdate(sproc.Update{
			Name:  "deposit-" + string(class),
			Class: class,
			Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
				acct := storage.Key(storage.ValueString(ctx.Args()[0]))
				amount := storage.ValueInt64(ctx.Args()[1])
				cur, _ := ctx.Read(acct)
				next := storage.Int64Value(storage.ValueInt64(cur) + amount)
				return next, ctx.Write(acct, next)
			},
		}); err != nil {
			t.Fatal(err)
		}
		// transfer-<class>(from, to, amount): conserves the class total.
		if err := reg.RegisterUpdate(sproc.Update{
			Name:  "transfer-" + string(class),
			Class: class,
			Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
				from := storage.Key(storage.ValueString(ctx.Args()[0]))
				to := storage.Key(storage.ValueString(ctx.Args()[1]))
				amount := storage.ValueInt64(ctx.Args()[2])
				fv, _ := ctx.Read(from)
				tv, _ := ctx.Read(to)
				if err := ctx.Write(from, storage.Int64Value(storage.ValueInt64(fv)-amount)); err != nil {
					return nil, err
				}
				return nil, ctx.Write(to, storage.Int64Value(storage.ValueInt64(tv)+amount))
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// total(class...): sums every account of the given classes from one
	// consistent snapshot.
	if err := reg.RegisterQuery(sproc.Query{
		Name: "total",
		Fn: func(ctx sproc.QueryCtx) (storage.Value, error) {
			var sum int64
			for _, arg := range ctx.Args() {
				class := sproc.ClassID(storage.ValueString(arg))
				for a := 0; a < accounts; a++ {
					v, _ := ctx.Read(class, storage.Key(fmt.Sprintf("acct%d", a)))
					sum += storage.ValueInt64(v)
				}
			}
			return storage.Int64Value(sum), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	// get(class, account): single-key read.
	if err := reg.RegisterQuery(sproc.Query{
		Name: "get",
		Fn: func(ctx sproc.QueryCtx) (storage.Value, error) {
			class := sproc.ClassID(storage.ValueString(ctx.Args()[0]))
			v, _ := ctx.Read(class, storage.Key(storage.ValueString(ctx.Args()[1])))
			return v, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// cluster is an in-process replicated database over the optimistic
// atomic broadcast.
type cluster struct {
	hub  *transport.Hub
	reps []*db.Replica
	rec  *history.Recorder
}

type clusterOpts struct {
	jitter  time.Duration
	queries db.QueryMode
	seed    func(s *storage.Store)
}

func newCluster(t *testing.T, n int, reg *sproc.Registry, o clusterOpts) *cluster {
	t.Helper()
	var hubOpts []transport.MemOption
	if o.jitter > 0 {
		hubOpts = append(hubOpts, transport.WithJitter(o.jitter), transport.WithSeed(42))
	}
	hub := transport.NewHub(n, hubOpts...)
	rec := history.NewRecorder()
	c := &cluster{hub: hub, rec: rec}
	for i := 0; i < n; i++ {
		ep := hub.Endpoint(transport.NodeID(i))
		cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 50 * time.Millisecond})
		cons.Start()
		bc := abcast.NewOptimistic(ep, cons)
		if err := bc.Start(); err != nil {
			t.Fatal(err)
		}
		store := storage.NewStore()
		if o.seed != nil {
			o.seed(store)
		}
		rep, err := db.New(db.Config{
			ID:        transport.NodeID(i),
			Broadcast: bc,
			Registry:  reg,
			Store:     store,
			Queries:   o.queries,
			History:   rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		c.reps = append(c.reps, rep)
		t.Cleanup(func() {
			rep.Stop()
			_ = bc.Stop()
			cons.Stop()
		})
	}
	t.Cleanup(hub.Close)
	return c
}

// quiesce waits until every replica has committed `want` transactions.
func (c *cluster) quiesce(t *testing.T, want int, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, rep := range c.reps {
		if err := rep.WaitCommits(ctx, want); err != nil {
			for i, rep := range c.reps {
				t.Logf("replica %d: committed=%d pending=%d",
					i, rep.Manager().Stats().Commits, rep.Manager().Pending())
			}
			t.Fatalf("cluster did not quiesce at %d commits: %v", want, err)
		}
	}
}

func (c *cluster) checkConvergence(t *testing.T) {
	t.Helper()
	d0 := c.reps[0].Store().Digest()
	for i, rep := range c.reps[1:] {
		if rep.Store().Digest() != d0 {
			t.Fatalf("replica %d diverged from replica 0", i+1)
		}
	}
	for i, rep := range c.reps {
		if err := rep.Manager().CheckInvariants(); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	if err := c.rec.Check(); err != nil {
		t.Fatalf("history check: %v", err)
	}
}

func TestExecSingleReplica(t *testing.T) {
	reg := bankRegistry(t, 1, 4)
	c := newCluster(t, 1, reg, clusterOpts{})
	ctx := context.Background()
	if _, err := c.reps[0].Exec(ctx, "deposit-c0", storage.StringValue("acct0"), storage.Int64Value(100)); err != nil {
		t.Fatal(err)
	}
	v, ok := c.reps[0].Store().Get("c0", "acct0")
	if !ok || storage.ValueInt64(v) != 100 {
		t.Fatalf("acct0 = %v,%v", storage.ValueInt64(v), ok)
	}
	c.checkConvergence(t)
}

func TestClusterConvergesAndIsSerializable(t *testing.T) {
	reg := bankRegistry(t, 3, 4)
	c := newCluster(t, 3, reg, clusterOpts{})
	ctx := context.Background()
	var wg sync.WaitGroup
	const perReplica = 20
	for i, rep := range c.reps {
		wg.Add(1)
		go func(i int, rep *db.Replica) {
			defer wg.Done()
			for j := 0; j < perReplica; j++ {
				class := fmt.Sprintf("c%d", (i+j)%3)
				acct := fmt.Sprintf("acct%d", j%4)
				if _, err := rep.Exec(ctx, "deposit-"+class,
					storage.StringValue(acct), storage.Int64Value(1)); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}(i, rep)
	}
	wg.Wait()
	c.quiesce(t, 3*perReplica, 30*time.Second)
	c.checkConvergence(t)
}

func TestClusterConvergesUnderJitter(t *testing.T) {
	reg := bankRegistry(t, 2, 4)
	c := newCluster(t, 3, reg, clusterOpts{jitter: 2 * time.Millisecond})
	ctx := context.Background()
	var wg sync.WaitGroup
	const perReplica = 15
	for i, rep := range c.reps {
		wg.Add(1)
		go func(i int, rep *db.Replica) {
			defer wg.Done()
			for j := 0; j < perReplica; j++ {
				class := fmt.Sprintf("c%d", j%2)
				if _, err := rep.Exec(ctx, "deposit-"+class,
					storage.StringValue("acct0"), storage.Int64Value(1)); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}(i, rep)
	}
	wg.Wait()
	c.quiesce(t, 3*perReplica, 30*time.Second)
	c.checkConvergence(t)
	// Final balance must equal the total number of deposits at every site.
	for i, rep := range c.reps {
		var sum int64
		for _, class := range []storage.Partition{"c0", "c1"} {
			v, _ := rep.Store().Get(class, "acct0")
			sum += storage.ValueInt64(v)
		}
		if sum != 3*perReplica {
			t.Fatalf("replica %d: sum = %d, want %d", i, sum, 3*perReplica)
		}
	}
}

func TestSnapshotQueriesSeeConsistentTotals(t *testing.T) {
	reg := bankRegistry(t, 2, 2)
	seed := func(s *storage.Store) {
		for _, class := range []storage.Partition{"c0", "c1"} {
			s.Load(class, "acct0", storage.Int64Value(500))
			s.Load(class, "acct1", storage.Int64Value(500))
		}
	}
	c := newCluster(t, 2, reg, clusterOpts{seed: seed})
	ctx := context.Background()

	stopUpdates := make(chan struct{})
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopUpdates:
				return
			default:
			}
			class := fmt.Sprintf("c%d", i%2)
			_, _ = c.reps[i%2].Exec(ctx, "transfer-"+class,
				storage.StringValue("acct0"), storage.StringValue("acct1"), storage.Int64Value(7))
		}
	}()

	// Transfers conserve per-class totals, so any consistent snapshot
	// reads exactly 1000 per class (2000 for both).
	for i := 0; i < 50; i++ {
		rep := c.reps[i%2]
		v, err := rep.Query(ctx, "total", storage.StringValue("c0"), storage.StringValue("c1"))
		if err != nil {
			t.Fatal(err)
		}
		if got := storage.ValueInt64(v); got != 2000 {
			t.Fatalf("query %d: total = %d, want 2000 (inconsistent snapshot)", i, got)
		}
	}
	close(stopUpdates)
	updWG.Wait()
	committed := int(c.reps[0].Manager().Stats().Commits)
	c.quiesce(t, committed, 30*time.Second)
	c.checkConvergence(t)
}

func TestQueryDoesNotBlockUpdates(t *testing.T) {
	reg := bankRegistry(t, 1, 2)
	c := newCluster(t, 1, reg, clusterOpts{})
	ctx := context.Background()
	// A query takes its snapshot, then updates proceed immediately; the
	// query result is unaffected by them.
	if _, err := c.reps[0].Exec(ctx, "deposit-c0", storage.StringValue("acct0"), storage.Int64Value(10)); err != nil {
		t.Fatal(err)
	}
	v, err := c.reps[0].Query(ctx, "get", storage.StringValue("c0"), storage.StringValue("acct0"))
	if err != nil {
		t.Fatal(err)
	}
	if storage.ValueInt64(v) != 10 {
		t.Fatalf("get = %d", storage.ValueInt64(v))
	}
	if _, err := c.reps[0].Exec(ctx, "deposit-c0", storage.StringValue("acct0"), storage.Int64Value(5)); err != nil {
		t.Fatal(err)
	}
	v2, err := c.reps[0].Query(ctx, "get", storage.StringValue("c0"), storage.StringValue("acct0"))
	if err != nil {
		t.Fatal(err)
	}
	if storage.ValueInt64(v2) != 15 {
		t.Fatalf("get after second deposit = %d", storage.ValueInt64(v2))
	}
}

func TestExecErrors(t *testing.T) {
	reg := bankRegistry(t, 1, 1)
	c := newCluster(t, 1, reg, clusterOpts{})
	ctx := context.Background()
	if _, err := c.reps[0].Exec(ctx, "no-such-proc"); !errors.Is(err, sproc.ErrUnknownProc) {
		t.Fatalf("unknown proc err = %v", err)
	}
	if _, err := c.reps[0].Exec(ctx, "total"); !errors.Is(err, db.ErrNotUpdate) {
		t.Fatalf("query-as-update err = %v", err)
	}
	if _, err := c.reps[0].Query(ctx, "deposit-c0"); !errors.Is(err, sproc.ErrUnknownProc) {
		t.Fatalf("update-as-query err = %v", err)
	}
}

func TestFailingProcedureReportsButStaysLive(t *testing.T) {
	reg := bankRegistry(t, 1, 1)
	boom := errors.New("boom")
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "failing",
		Class: "c0",
		Fn:    func(sproc.UpdateCtx) (storage.Value, error) { return nil, boom },
	}); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 1, reg, clusterOpts{})
	ctx := context.Background()
	if _, err := c.reps[0].Exec(ctx, "failing"); !errors.Is(err, boom) {
		t.Fatalf("failing proc err = %v", err)
	}
	// The class queue must not be stuck.
	if _, err := c.reps[0].Exec(ctx, "deposit-c0", storage.StringValue("acct0"), storage.Int64Value(1)); err != nil {
		t.Fatal(err)
	}
}

func TestExecContextCancellation(t *testing.T) {
	reg := bankRegistry(t, 1, 1)
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "slow",
		Class: "c0",
		Cost:  200 * time.Millisecond,
		Fn:    func(sproc.UpdateCtx) (storage.Value, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 1, reg, clusterOpts{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.reps[0].Exec(ctx, "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The broadcast is irrevocable: the transaction still commits.
	c.quiesce(t, 1, 10*time.Second)
}

// TestUpdateCostIsPrecise: a procedure's simulated service time costs
// what it declares plus one wake-up, not the ≈ 1.1 ms a runtime timer
// rounds a sub-millisecond wait up to in an idle process
// (golang/go#44343). Thirty sequential calls of a 300 µs procedure on a
// zero-delay replica, each beside a call of one without cost, take less
// than 700 µs more than those at the median. The baseline keeps the
// commit path's own time, longer under -race or beside other processes,
// out of what the cost is charged.
func TestUpdateCostIsPrecise(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("sub-millisecond waits are asserted on linux only")
	}
	const cost, calls, ceiling = 300 * time.Microsecond, 30, 700 * time.Microsecond
	reg := bankRegistry(t, 1, 1)
	for name, c := range map[string]time.Duration{"costly": cost, "free": 0} {
		if err := reg.RegisterUpdate(sproc.Update{
			Name:  name,
			Class: "c0",
			Cost:  c,
			Fn:    func(sproc.UpdateCtx) (storage.Value, error) { return nil, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := newCluster(t, 1, reg, clusterOpts{})
	exec := func(proc string) time.Duration {
		start := time.Now()
		if _, err := c.reps[0].Exec(context.Background(), proc); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Another process taking the processor makes a call late, never
	// early, so one undisturbed attempt of three is the replica's.
	var extra time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		costly, free := make([]time.Duration, calls), make([]time.Duration, calls)
		for i := range costly {
			if costly[i] = exec("costly"); costly[i] < cost {
				t.Fatalf("a call of a %v procedure took %v", cost, costly[i])
			}
			free[i] = exec("free")
		}
		slices.Sort(costly)
		slices.Sort(free)
		extra = costly[calls/2] - free[calls/2]
		t.Logf("attempt %d: median %v a call, %v without cost", attempt, costly[calls/2], free[calls/2])
		if extra < ceiling {
			return
		}
	}
	t.Fatalf("a %v cost adds %v to a call at the median, want < %v", cost, extra, ceiling)
}

// TestAbortEndsCostWait: an abort ends an attempt's simulated service
// time at once. T1 (Cost 5 s) is Opt-delivered and waits out its cost;
// T2 of the same class is Opt- and then TO-delivered first, which aborts
// T1. T2's procedure holds the class until the test lets it go, so T1 is
// not run again meanwhile: the goroutine that waited for T1 must leave
// its wait.
func TestAbortEndsCostWait(t *testing.T) {
	reg := sproc.NewRegistry()
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "slow",
		Class: "c",
		Cost:  5 * time.Second,
		Fn:    func(sproc.UpdateCtx) (storage.Value, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	t2Running, t2Go := make(chan struct{}), make(chan struct{})
	registerBump(t, reg, "held", "c", func(sproc.UpdateCtx) {
		close(t2Running)
		<-t2Go
	})
	s := newScriptedReplica(t, reg)
	defer s.rep.Stop()
	release := sync.OnceFunc(func() { close(t2Go) })
	defer release()

	start := time.Now()
	before := dwellers()
	// newDweller returns a goroutine waiting in Dwell that was not before.
	newDweller := func() (int, bool) {
		for g := range dwellers() {
			if !before[g] {
				return g, true
			}
		}
		return 0, false
	}
	id1, req1, _ := s.submit(t, "slow")
	id2, req2, done2 := s.submit(t, "held")
	s.bc.InjectOpt(id1, req1)
	var t1 int
	testutil.Eventually(t, 5*time.Second, "T1 to wait out its cost", func() (ok bool) {
		t1, ok = newDweller()
		return ok
	})
	s.bc.InjectOpt(id2, req2)
	s.bc.InjectTO(id2)
	waitFor(t, t2Running, "T2 to run after T1's abort")
	testutil.Eventually(t, time.Second, "T1's aborted attempt to leave its wait", func() bool {
		return !dwellers()[t1]
	})
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("took %v with a 5 s cost aborted", took)
	}
	// T2 commits and T1 runs again. Its new attempt is left waiting when
	// the test ends; it must be waiting before the test does, or a later
	// run of this test would take it for its own T1.
	release()
	waitFor(t, done2, "T2 to commit")
	testutil.Eventually(t, 5*time.Second, "T1 to run again", func() bool {
		_, ok := newDweller()
		return ok
	})
}

// dwellers is the set of goroutines waiting in transport.Dwell.
func dwellers() map[int]bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	ids := make(map[int]bool)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "transport.Dwell(") {
			id, _ := strconv.Atoi(strings.Fields(g)[1])
			ids[id] = true
		}
	}
	return ids
}

// TestStopEndsCommitStall: Stop must not sit out a slow-disk stall. With
// a 2 s stall set and a backlog of TO confirmations queued behind the one
// that is dwelling, Stop ends the dwell and starts no other.
func TestStopEndsCommitStall(t *testing.T) {
	reg := bankRegistry(t, 1, 1)
	c := newCluster(t, 1, reg, clusterOpts{})
	rep := c.reps[0]
	rep.SetCommitStall(2 * time.Second)
	for i := 0; i < 20; i++ {
		if _, err := rep.SubmitNotify("deposit-c0", []storage.Value{storage.StringValue("acct0"), storage.Int64Value(1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // the first TO dwells, the rest queue
	start := time.Now()
	rep.Stop()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Stop took %v with a 2 s stall set; want ≤ 100 ms", took)
	}
}

func TestStopUnblocksWaiters(t *testing.T) {
	reg := bankRegistry(t, 1, 1)
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "verySlow",
		Class: "c0",
		Cost:  5 * time.Second,
		Fn:    func(sproc.UpdateCtx) (storage.Value, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 1, reg, clusterOpts{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.reps[0].Exec(context.Background(), "verySlow")
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.reps[0].Stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, db.ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released on Stop")
	}
}
