package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"otpdb"
	"otpdb/internal/baseline"
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
	var reps []*baseline.AsyncReplica
	for i := 0; i < p.Sites; i++ {
		rep := baseline.NewAsync(hub.Endpoint(transport.NodeID(i)), reg, nil)
		rep.Start()
		reps = append(reps, rep)
	}
	defer func() {
		for _, rep := range reps {
			rep.Stop()
		}
	}()

	hist := metrics.NewHistogram()
	var wg sync.WaitGroup
	var execErr error
	var errOnce sync.Once
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *baseline.AsyncReplica) {
			defer wg.Done()
			for i := 0; i < p.IncrementsPerSite; i++ {
				start := time.Now()
				if err := rep.Exec("incr"); err != nil {
					errOnce.Do(func() { execErr = err })
					return
				}
				hist.Observe(time.Since(start))
			}
		}(rep)
	}
	wg.Wait()
	if execErr != nil {
		return vsAsyncResult{}, execErr
	}
	// Quiesce: every replica has applied every remote write set.
	expectedApplies := uint64((p.Sites - 1) * p.IncrementsPerSite)
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, rep := range reps {
			if rep.Stats().RemoteApplies < expectedApplies {
				done = false
				break
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	res := vsAsyncResult{meanLatency: hist.Mean(), p95Latency: hist.Percentile(95)}
	expected := int64(p.Sites * p.IncrementsPerSite)
	d0 := reps[0].Store().Digest()
	for _, rep := range reps {
		v, _ := rep.Get("counter", "n")
		if got := storage.ValueInt64(v); expected-got > res.lost {
			res.lost = expected - got
		}
		if rep.Store().Digest() != d0 {
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
