package experiments

import (
	"context"
	"fmt"
	"time"

	"otpdb"
	"otpdb/internal/metrics"
)

// Load is what drive measured: throughput, the commit latency each
// session call observed, and which protocol path the commits took.
type Load struct {
	PerSec float64
	metrics.Summary
	FastPath, Reordered, Retried int
}

// drive is the one client loop of the harness: it pushes n transactions
// through sess with at most depth in flight, resolving the oldest before
// submitting the next, and waits for all of them. proc names the i-th
// call. Depth 1 is the synchronous Exec loop (Exec is SubmitAsync +
// Wait); the clock runs from the first submit to the last commit.
func drive(sess *otpdb.Session, n, depth int, proc func(i int) (string, []otpdb.Value)) (Load, error) {
	var ld Load
	ctx := context.Background()
	hist := metrics.NewHistogram()
	// Slot i%depth holds the handle submitted depth calls before call i.
	inflight := make([]*otpdb.Handle, depth)
	start := time.Now()
	for i := 0; i < n+depth; i++ {
		if h := inflight[i%depth]; h != nil {
			res, err := h.Wait(ctx)
			if err != nil {
				return ld, err
			}
			hist.Observe(res.Latency)
			switch res.Outcome {
			case otpdb.Reordered:
				ld.Reordered++
			case otpdb.Retried:
				ld.Retried++
			default:
				ld.FastPath++
			}
			inflight[i%depth] = nil
		}
		if i < n {
			name, args := proc(i)
			h, err := sess.SubmitAsync(name, args...)
			if err != nil {
				return ld, err
			}
			inflight[i%depth] = h
		}
	}
	ld.PerSec = float64(n) / time.Since(start).Seconds()
	ld.Summary = hist.Summarize()
	return ld, nil
}

// always is drive's proc for a single argument-less procedure.
func always(name string) func(int) (string, []otpdb.Value) {
	return func(int) (string, []otpdb.Value) { return name, nil }
}

// counterSession starts a cluster whose one procedure, "incr", bumps a
// single counter — every transaction conflicts with every other — and
// returns a session at site 0. The caller stops the cluster.
func counterSession(opts ...otpdb.Option) (*otpdb.Cluster, *otpdb.Session, error) {
	cluster, err := otpdb.NewCluster(opts...)
	if err != nil {
		return nil, nil, err
	}
	cluster.MustRegisterUpdate(incr)
	if err := cluster.Start(); err != nil {
		cluster.Stop()
		return nil, nil, err
	}
	sess, err := cluster.Session(0)
	if err != nil {
		cluster.Stop()
		return nil, nil, err
	}
	return cluster, sess, nil
}

// micros renders a duration the way the commit-latency columns do.
func micros(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

// us renders a duration rounded to the microsecond, unit chosen by its size.
func us(d time.Duration) string { return d.Round(time.Microsecond).String() }
