package experiments

import (
	"context"
	"fmt"
	"time"

	"otpdb"
)

// PipelineParams configures the client-pipelining experiment: the same
// conflicting increment workload driven through the Session API at
// increasing pipeline depths. Depth 1 is the synchronous Exec baseline;
// deeper pipelines keep that many transactions in flight per client,
// which is the client-side counterpart of the paper's overlap argument —
// the broadcast's coordination phase is hidden behind the submission of
// later transactions instead of idle client time.
type PipelineParams struct {
	// Sites is the cluster size.
	Sites int
	// Txns is the number of transactions per cell.
	Txns int
	// Depths sweeps the number of in-flight transactions per client.
	Depths []int
	// Jitter provokes tentative/definitive mismatches so the outcome
	// split (fastpath vs reordered/retried) is visible under load.
	Jitter time.Duration
}

// pipelineParams sweeps depth from synchronous to 128-deep.
func pipelineParams(quick bool) PipelineParams {
	p := PipelineParams{
		Sites:  3,
		Txns:   1500,
		Depths: []int{1, 8, 32, 128},
		Jitter: 200 * time.Microsecond,
	}
	if quick {
		p.Txns = 300
		p.Depths = []int{1, 8, 32}
	}
	return p
}

// pipelineCell drives Txns increments through one session at the given
// depth and reports throughput, latency and the outcome split.
func pipelineCell(p PipelineParams, depth int) (Load, error) {
	cluster, sess, err := counterSession(otpdb.WithReplicas(p.Sites), otpdb.WithNetworkJitter(p.Jitter))
	if err != nil {
		return Load{}, err
	}
	defer cluster.Stop()
	ld, err := drive(sess, p.Txns, depth, always("incr"))
	if err != nil {
		return Load{}, err
	}
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ld, cluster.WaitForCommits(wctx, p.Txns)
}

// Pipeline measures Session API throughput as a function of pipeline
// depth. With one transaction in flight the client pays the full
// broadcast round-trip per commit; with a deep pipeline the ordering
// protocol runs concurrently with submission and throughput approaches
// what the scheduler can sustain.
func Pipeline(p PipelineParams) (Table, error) {
	t := Table{
		Title: "E6 — Session pipelining: throughput vs in-flight depth (SubmitAsync)",
		Columns: []string{
			"depth", "txn/s", "commit mean", "commit p95", "fastpath", "reordered", "retried",
		},
		Notes: []string{
			fmt.Sprintf("%d sites, %d conflicting increments through one session, %v network jitter",
				p.Sites, p.Txns, p.Jitter),
			"depth 1 = synchronous Exec; deeper pipelines overlap ordering with submission",
		},
	}
	for _, depth := range p.Depths {
		ld, err := pipelineCell(p, depth)
		if err != nil {
			return Table{}, fmt.Errorf("depth %d: %w", depth, err)
		}
		t.AddRow(
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.0f", ld.PerSec),
			ld.Mean.Round(time.Microsecond).String(),
			ld.P95.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", ld.FastPath),
			fmt.Sprintf("%d", ld.Reordered),
			fmt.Sprintf("%d", ld.Retried),
		)
	}
	return t, nil
}
