package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"otpdb"
	"otpdb/internal/metrics"
)

// QueriesParams configures the Section 5 experiment: snapshot queries run
// locally without blocking updates while preserving
// 1-copy-serializability; the dirty-read baseline shows why the snapshot
// rule is needed.
type QueriesParams struct {
	// Sites is the cluster size.
	Sites int
	// Classes is the number of conflict classes (the query spans all).
	Classes int
	// TransfersPerSite is the update load per site.
	TransfersPerSite int
	// Queries is the number of cross-class sum queries issued per site
	// while updates run.
	Queries int
}

// queriesParams uses two sites and two classes, the minimal
// configuration that exposes the Section 5 anomaly for dirty reads.
func queriesParams(quick bool) QueriesParams {
	p := QueriesParams{Sites: 2, Classes: 2, TransfersPerSite: 150, Queries: 60}
	if quick {
		p.TransfersPerSite, p.Queries = 50, 20
	}
	return p
}

// registerQueries: per-class transfer (conserves the class total) plus a
// cross-class sum query.
func registerQueries(c *otpdb.Cluster, classes int) error {
	for i := 0; i < classes; i++ {
		class := otpdb.Class(fmt.Sprintf("c%d", i))
		err := c.RegisterUpdate(otpdb.Update{
			Name:  "transfer-" + string(class),
			Class: class,
			Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
				a, _ := ctx.Read("a")
				b, _ := ctx.Read("b")
				if err := ctx.Write("a", otpdb.Int64(otpdb.AsInt64(a)-1)); err != nil {
					return nil, err
				}
				return nil, ctx.Write("b", otpdb.Int64(otpdb.AsInt64(b)+1))
			},
		})
		if err != nil {
			return err
		}
	}
	// sumAll models a long-running analytical report: it pauses between
	// reads, so with dirty reads concurrent commits can land inside the
	// scan and tear the total. A Section 5 snapshot is immune: every read
	// resolves against the same definitive index no matter how long the
	// query runs.
	return c.RegisterQuery(otpdb.Query{
		Name: "sumAll",
		Fn: func(ctx otpdb.QueryCtx) (otpdb.Value, error) {
			var sum int64
			for i := 0; i < classes; i++ {
				class := otpdb.Class(fmt.Sprintf("c%d", i))
				for _, k := range []otpdb.Key{"a", "b"} {
					v, _ := ctx.Read(class, k)
					sum += otpdb.AsInt64(v)
					time.Sleep(500 * time.Microsecond)
				}
			}
			return otpdb.Int64(sum), nil
		},
	})
}

// queriesCell runs the mixed workload with snapshot or dirty queries and reports
// query latency, update throughput, inconsistent query results and the
// serializability verdict.
func queriesCell(p QueriesParams, dirty bool) (qLat metrics.Summary, updPerSec float64, inconsistent int, serializable bool, err error) {
	opts := []otpdb.Option{otpdb.WithReplicas(p.Sites), otpdb.WithNetworkJitter(500 * time.Microsecond),
		otpdb.WithSeed(5), otpdb.WithHistoryRecording()}
	if dirty {
		opts = append(opts, otpdb.WithDirtyQueries())
	}
	cluster, err := otpdb.NewCluster(opts...)
	if err != nil {
		return
	}
	if err = registerQueries(cluster, p.Classes); err != nil {
		return
	}
	const seedPerKey = 1000
	for c := 0; c < p.Classes; c++ {
		for _, k := range []otpdb.Key{"a", "b"} {
			if err = cluster.Seed(otpdb.Class(fmt.Sprintf("c%d", c)), k, otpdb.Int64(seedPerKey)); err != nil {
				return
			}
		}
	}
	if err = cluster.Start(); err != nil {
		return
	}
	defer cluster.Stop()

	expectedTotal := int64(p.Classes * 2 * seedPerKey)
	ctx := context.Background()
	qHist := metrics.NewHistogram()
	var inconsistentCount int

	var wg sync.WaitGroup
	tput := metrics.NewThroughput()
	for i := 0; i < p.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < p.TransfersPerSite; j++ {
				class := fmt.Sprintf("c%d", (i+j)%p.Classes)
				if err := cluster.Exec(ctx, i, "transfer-"+class); err != nil {
					return
				}
				tput.Inc()
			}
		}(i)
	}
	var qwg sync.WaitGroup
	var qmu sync.Mutex
	for i := 0; i < p.Sites; i++ {
		qwg.Add(1)
		go func(i int) {
			defer qwg.Done()
			for j := 0; j < p.Queries; j++ {
				start := time.Now()
				v, err := cluster.QueryAt(ctx, i, "sumAll")
				if err != nil {
					return
				}
				qHist.Observe(time.Since(start))
				if otpdb.AsInt64(v) != expectedTotal {
					qmu.Lock()
					inconsistentCount++
					qmu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	qwg.Wait()
	updRate := tput.PerSecond()

	// Quiesce before the final history check.
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	_ = cluster.WaitForCommits(wctx, p.Sites*p.TransfersPerSite)
	cancel()
	serializable = cluster.CheckHistory() == nil
	return qHist.Summarize(), updRate, inconsistentCount, serializable, nil
}

// Queries reproduces the Section 5 experiment: snapshot queries versus
// the dirty-read baseline under a concurrent transfer load. Transfers
// conserve totals, so every consistent snapshot sums to the seeded
// amount; dirty reads can observe torn states and break
// 1-copy-serializability.
func Queries(p QueriesParams) (Table, error) {
	t := Table{
		Title: "E5 — snapshot queries (§5) vs dirty-read baseline",
		Columns: []string{
			"query mode", "query mean", "query p95", "updates/s",
			"torn totals", "1-copy-serializable",
		},
		Notes: []string{
			fmt.Sprintf("%d sites, %d classes, %d transfers/site, %d queries/site",
				p.Sites, p.Classes, p.TransfersPerSite, p.Queries),
			"transfers conserve totals: every consistent snapshot sums to the seed",
		},
	}
	for _, dirty := range []bool{false, true} {
		name := "snapshot (§5)"
		if dirty {
			name = "dirty reads"
		}
		sum, updRate, torn, serializable, err := queriesCell(p, dirty)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(name,
			sum.Mean.Round(time.Microsecond).String(),
			sum.P95.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", updRate),
			fmt.Sprintf("%d", torn),
			fmt.Sprintf("%v", serializable),
		)
	}
	return t, nil
}
