package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"otpdb"
	"otpdb/internal/metrics"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// VsAsyncParams configures the Section 1 comparison against commercial
// asynchronous replication: comparable performance, but OTP keeps global
// consistency while async loses concurrent updates.
type VsAsyncParams struct {
	// Sites is the cluster size.
	Sites int
	// IncrementsPerSite is how many counter increments each site submits.
	IncrementsPerSite int
	// NetDelay is the propagation delay between sites.
	NetDelay time.Duration
}

// vsAsyncParams uses a 3-site cluster with a LAN-ish delay.
func vsAsyncParams(quick bool) VsAsyncParams {
	p := VsAsyncParams{Sites: 3, IncrementsPerSite: 60, NetDelay: 2 * time.Millisecond}
	if quick {
		p.IncrementsPerSite = 25
	}
	return p
}

// incr is the conflicting workload: every call increments one counter.
var incr = sproc.Update{
	Name:  "incr",
	Class: "counter",
	Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
		cur, _ := ctx.Read("n")
		next := storage.Int64Value(storage.ValueInt64(cur) + 1)
		return next, ctx.Write("n", next)
	},
}

// vsAsyncResult is one engine's measurement.
type vsAsyncResult struct {
	meanLatency time.Duration
	p95Latency  time.Duration
	lost        int64
	diverged    int
}

func runOTPSide(p VsAsyncParams) (vsAsyncResult, error) {
	cluster, err := otpdb.NewCluster(otpdb.WithReplicas(p.Sites), otpdb.WithNetworkDelay(p.NetDelay), otpdb.WithSeed(1))
	if err != nil {
		return vsAsyncResult{}, err
	}
	if err := cluster.RegisterUpdate(incr); err != nil {
		return vsAsyncResult{}, err
	}
	if err := cluster.Start(); err != nil {
		return vsAsyncResult{}, err
	}
	defer cluster.Stop()

	hist := metrics.NewHistogram()
	ctx := context.Background()
	var wg sync.WaitGroup
	var execErr error
	var errOnce sync.Once
	for site := 0; site < p.Sites; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < p.IncrementsPerSite; i++ {
				start := time.Now()
				if err := cluster.Exec(ctx, site, "incr"); err != nil {
					errOnce.Do(func() { execErr = err })
					return
				}
				hist.Observe(time.Since(start))
			}
		}(site)
	}
	wg.Wait()
	if execErr != nil {
		return vsAsyncResult{}, execErr
	}
	// Quiesce: every replica commits every transaction.
	total := p.Sites * p.IncrementsPerSite
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	_ = cluster.WaitForCommits(wctx, total)
	cancel()

	res := vsAsyncResult{meanLatency: hist.Mean(), p95Latency: hist.Percentile(95)}
	expected := int64(total)
	d0, _ := cluster.DigestAt(0)
	for site := 0; site < p.Sites; site++ {
		v, _, _ := cluster.Read(site, "counter", "n")
		if got := storage.ValueInt64(v); expected-got > res.lost {
			res.lost = expected - got
		}
		if d, _ := cluster.DigestAt(site); d != d0 {
			res.diverged++
		}
	}
	return res, nil
}

func runAsyncSide(p VsAsyncParams) (vsAsyncResult, error) {
	reg := sproc.NewRegistry()
	if err := reg.RegisterUpdate(incr); err != nil {
		return vsAsyncResult{}, err
	}
	hub := transport.NewHub(p.Sites, transport.WithDelay(p.NetDelay), transport.WithSeed(2))
	defer hub.Close()
	reps := make([]*asyncReplica, p.Sites)
	for i := range reps {
		reps[i] = startAsync(hub.Endpoint(transport.NodeID(i)), reg)
	}

	hist := metrics.NewHistogram()
	var wg sync.WaitGroup
	var execErr error
	var errOnce sync.Once
	for _, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < p.IncrementsPerSite; i++ {
				start := time.Now()
				if err := rep.exec("incr"); err != nil {
					errOnce.Do(func() { execErr = err })
					return
				}
				hist.Observe(time.Since(start))
			}
		}()
	}
	wg.Wait()
	if execErr != nil {
		return vsAsyncResult{}, execErr
	}
	// Quiesce: every replica has applied every remote write set.
	for _, rep := range reps {
		rep.waitApplied(uint64((p.Sites - 1) * p.IncrementsPerSite))
	}

	res := vsAsyncResult{meanLatency: hist.Mean(), p95Latency: hist.Percentile(95)}
	expected := int64(p.Sites * p.IncrementsPerSite)
	d0 := reps[0].store.Digest()
	for _, rep := range reps {
		v, _ := rep.store.Get(storage.Partition(incr.Class), "n")
		if got := storage.ValueInt64(v); expected-got > res.lost {
			res.lost = expected - got
		}
		if rep.store.Digest() != d0 {
			res.diverged++
		}
	}
	return res, nil
}

// VsAsync reproduces the Section 1 comparison table: OTP versus
// commercial-style asynchronous replication on the same conflicting
// workload. Async wins on raw commit latency (it only commits locally)
// but loses updates and diverges; OTP pays the broadcast and loses
// nothing.
func VsAsync(p VsAsyncParams) (Table, error) {
	otpRes, err := runOTPSide(p)
	if err != nil {
		return Table{}, fmt.Errorf("otp side: %w", err)
	}
	asyncRes, err := runAsyncSide(p)
	if err != nil {
		return Table{}, fmt.Errorf("async side: %w", err)
	}
	t := Table{
		Title: "E4 — OTP vs asynchronous replication (§1)",
		Columns: []string{
			"engine", "mean latency", "p95 latency", "lost updates", "diverged replicas",
		},
		Notes: []string{
			fmt.Sprintf("%d sites, %d conflicting increments/site, %v network delay",
				p.Sites, p.IncrementsPerSite, p.NetDelay),
			"paper claim (§1): comparable performance with global consistency kept",
		},
	}
	expected := int64(p.Sites * p.IncrementsPerSite)
	t.AddRow("OTP (this paper)",
		otpRes.meanLatency.Round(time.Microsecond).String(),
		otpRes.p95Latency.Round(time.Microsecond).String(),
		fmt.Sprintf("%d/%d", otpRes.lost, expected),
		fmt.Sprintf("%d", otpRes.diverged))
	t.AddRow("async primary-copy",
		asyncRes.meanLatency.Round(time.Microsecond).String(),
		asyncRes.p95Latency.Round(time.Microsecond).String(),
		fmt.Sprintf("%d/%d", asyncRes.lost, expected),
		fmt.Sprintf("%d", asyncRes.diverged))
	return t, nil
}

// streamAsync carries asynchronous replication's write sets.
const streamAsync = "async.update"

// writeSet is the propagated effect of a locally committed transaction.
type writeSet struct {
	partition storage.Partition
	writes    []storage.ClassKeyValue
}

// asyncReplica is one site of the commercial-style asynchronous
// replication of Section 1 ([20]): an update commits locally first and its
// write set propagates to the other sites afterwards, with no total order.
// Commit latency is purely local, but concurrent conflicting updates are
// silently lost and replicas can diverge — the trade-off the paper's
// architecture avoids.
type asyncReplica struct {
	ep    transport.Endpoint
	reg   *sproc.Registry
	store *storage.Store

	mu      sync.Mutex
	nextIdx map[storage.Partition]int64
	applied uint64    // remote write sets installed
	change  sync.Cond // on mu: broadcast after each installed write set
}

// startAsync creates a replica on ep and starts its apply loop, which
// runs until ep's hub is closed.
func startAsync(ep transport.Endpoint, reg *sproc.Registry) *asyncReplica {
	r := &asyncReplica{ep: ep, reg: reg, store: storage.NewStore(), nextIdx: make(map[storage.Partition]int64)}
	r.change.L = &r.mu
	in := ep.Subscribe(streamAsync)
	go func() {
		for env := range in {
			if ws, ok := env.Msg.(writeSet); ok {
				r.apply(ws)
			}
		}
	}()
	return r
}

// exec runs an update procedure locally, commits it, and sends its write
// set to the other sites. It returns once the local commit is done — the
// low latency the paper's Section 1 credits asynchronous schemes with.
func (r *asyncReplica) exec(proc string) error {
	up, err := r.reg.Update(proc)
	if err != nil {
		return err
	}
	part := storage.Partition(up.Class)
	// A remote apply may hold the partition briefly; park on its release.
	var stx storage.MultiTxn
	if err := r.store.BeginMultiWait(&stx, []storage.Partition{part}, nil); err != nil {
		return err
	}
	if _, err := up.Fn(asyncCtx{&stx, part}); err != nil {
		_ = stx.Abort()
		return err
	}
	ws := writeSet{partition: part, writes: stx.PendingWrites()}
	if err := stx.Commit(r.next(part)); err != nil {
		return fmt.Errorf("async: local commit: %w", err)
	}
	// Fire-and-forget propagation — the defining property (and flaw) of
	// asynchronous replication.
	for i := 0; i < r.ep.N(); i++ {
		if to := transport.NodeID(i); to != r.ep.ID() {
			_ = r.ep.Send(to, streamAsync, ws)
		}
	}
	return nil
}

// apply installs a remote write set blindly (last writer wins by arrival
// order) — concurrent conflicting local updates are overwritten, which is
// how asynchronous replication loses updates.
func (r *asyncReplica) apply(ws writeSet) {
	var stx storage.MultiTxn
	if r.store.BeginMultiWait(&stx, []storage.Partition{ws.partition}, nil) != nil {
		return
	}
	for _, w := range ws.writes {
		_ = stx.Write(w.Partition, w.Key, w.Value)
	}
	_ = stx.Commit(r.next(ws.partition))
	r.mu.Lock()
	r.applied++
	r.change.Broadcast()
	r.mu.Unlock()
}

// next numbers the partition's next commit; the caller holds the partition.
func (r *asyncReplica) next(part storage.Partition) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextIdx[part]++
	return r.nextIdx[part]
}

// waitApplied returns once n remote write sets have been installed.
func (r *asyncReplica) waitApplied(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied < n {
		r.change.Wait()
	}
}

// asyncCtx implements sproc.UpdateCtx directly over a storage txn on one
// partition.
type asyncCtx struct {
	stx  *storage.MultiTxn
	part storage.Partition
}

func (c asyncCtx) Args() []storage.Value { return nil }

func (c asyncCtx) Read(key storage.Key) (storage.Value, bool) { return c.stx.Read(c.part, key) }

func (c asyncCtx) Write(key storage.Key, v storage.Value) error { return c.stx.Write(c.part, key, v) }
