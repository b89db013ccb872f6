package experiments

import (
	"fmt"
	"os"
	"time"

	"otpdb"
	"otpdb/internal/transport"
)

// This file is E12 (DESIGN.md §10): horizontal scaling across shard
// groups. The paper's protocol orders every transaction in one total
// order, so one group's commit pipeline bounds aggregate throughput no
// matter how many sites serve reads; sharding multiplies that bound by
// running S independent groups behind one namespace. The experiment
// measures (a) aggregate commit throughput at 1..S shards when each
// group's pipeline is bounded by a serial commit-flush device, (b) the
// same sweep against the host filesystem's real per-commit fsync, and
// (c) what the two-phase cross-shard protocol costs as the fraction of
// transactions spanning two shards grows.
//
// The primary scaling sweep models a per-group flush device (sized to a
// typical small-write fsync) with the slow-disk stall the chaos harness
// injects, FaultInjector.StallCommits, armed on every site: each TO
// confirmation dwells that long (transport.Dwell) before it is
// processed, the way a per-commit WAL fsync serializes a group's commit
// pipeline. It is modeled because the benchmark host confounds the
// measurement. Concurrent fsyncs from different WAL files serialize in
// the shared filesystem journal (measured here: ~4/5ths of a single lane
// at 4 writers), so the real-fsync sweep mostly measures one ext4
// journal, not the protocol. Both sweeps are reported.

// ShardBenchParams sizes the sharding benchmark.
type ShardBenchParams struct {
	// Replicas is the number of sites per shard group.
	Replicas int
	// Shards is the scaling sweep (aggregate throughput per shard count).
	Shards []int
	// Txns is the transaction count per scaling cell.
	Txns int
	// Depth is the pipelined submit window per cell.
	Depth int
	// FlushDelay is the modeled per-commit flush device of the primary
	// scaling sweep.
	FlushDelay time.Duration
	// DurableTxns is the transaction count per real-fsync scaling cell.
	DurableTxns int
	// CrossShards is the shard count of the cross-ratio sweep.
	CrossShards int
	// CrossRatios is the fraction of transactions spanning two shards.
	CrossRatios []float64
	// CrossTxns is the transaction count per cross-ratio cell.
	CrossTxns int
}

// shardParams sizes E12; quick shrinks every sweep for CI smoke runs.
func shardParams(quick bool) ShardBenchParams {
	if quick {
		return ShardBenchParams{
			Replicas:    1,
			Shards:      []int{1, 2, 4},
			Txns:        600,
			Depth:       32,
			FlushDelay:  200 * time.Microsecond,
			DurableTxns: 300,
			CrossShards: 2,
			CrossRatios: []float64{0, 0.10, 0.50},
			CrossTxns:   150,
		}
	}
	return ShardBenchParams{
		Replicas:    3,
		Shards:      []int{1, 2, 4, 8},
		Txns:        2000,
		Depth:       64,
		FlushDelay:  300 * time.Microsecond,
		DurableTxns: 800,
		CrossShards: 4,
		CrossRatios: []float64{0, 0.05, 0.10, 0.25, 0.50},
		CrossTxns:   600,
	}
}

// ShardScaleCell is one shard count's aggregate durable throughput.
type ShardScaleCell struct {
	Shards int
	Load
	// SpeedupVs1 is this cell's throughput over the 1-shard cell's.
	SpeedupVs1 float64
}

// ShardCrossCell is one cross-shard ratio's throughput at a fixed shard
// count.
type ShardCrossCell struct {
	Shards int
	// CrossPercent is the share of transactions spanning two shards.
	CrossPercent float64
	// CrossTxns is how many of the cell's transactions were cross-shard.
	CrossTxns int
	Load
}

// ShardReport is E12's result.
type ShardReport struct {
	Replicas int
	// FlushMicros is the nominal modeled per-commit flush device of the
	// primary scaling sweep (see the file comment for why it is modeled).
	FlushMicros float64
	// EffectiveFlushMicros is the calibrated duration one flush-device
	// wait actually takes on this host.
	EffectiveFlushMicros float64
	// Scale is the primary sweep: aggregate throughput per shard count
	// over the modeled flush device.
	Scale []ShardScaleCell
	// ScaleDurable is the same sweep against the host filesystem with
	// fsync=commit; its ceiling is the filesystem journal's concurrent-
	// fsync capacity, reported for honesty about real-disk behavior.
	ScaleDurable []ShardScaleCell
	// Cross is the cross-shard ratio sweep (modeled flush device).
	Cross []ShardCrossCell
}

// shardCluster builds a durable sharded cluster with classes c<i> pinned
// to shard i and a bump-c<i> increment procedure per class; withCross
// also registers the two-shard transfer procedure. A positive flush arms
// the modeled flush device on every site once the cluster runs.
func shardCluster(replicas, shards int, withCross bool, flush time.Duration, opts ...otpdb.Option) (*otpdb.Cluster, error) {
	cluster, err := otpdb.NewCluster(append([]otpdb.Option{
		otpdb.WithReplicas(replicas),
		otpdb.WithShards(shards),
	}, opts...)...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		class := otpdb.Class(fmt.Sprintf("c%d", i))
		if err := cluster.PinClass(class, i); err != nil {
			return nil, err
		}
		cluster.MustRegisterUpdate(otpdb.Update{
			Name:  fmt.Sprintf("bump-%s", class),
			Class: class,
			Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
				v, _ := ctx.Read("k")
				next := otpdb.Int64(otpdb.AsInt64(v) + 1)
				return next, ctx.Write("k", next)
			},
		})
	}
	if withCross {
		// Each invocation moves value between its own key pair: the cell
		// measures the two-phase protocol's cost, not optimistic-
		// validation contention on one hot key (which would livelock the
		// cross transactions against the pipelined single-shard stream).
		cluster.MustRegisterMultiUpdate(otpdb.MultiUpdate{
			Name:    "xfer",
			Classes: []otpdb.Class{"c0", "c1"},
			Fn: func(ctx otpdb.MultiUpdateCtx) (otpdb.Value, error) {
				key := otpdb.Key(otpdb.AsString(ctx.Args()[0]))
				s, _ := ctx.Read("c0", key)
				d, _ := ctx.Read("c1", key)
				if err := ctx.Write("c0", key, otpdb.Int64(otpdb.AsInt64(s)-1)); err != nil {
					return nil, err
				}
				next := otpdb.Int64(otpdb.AsInt64(d) + 1)
				return next, ctx.Write("c1", key, next)
			},
		})
	}
	if err := cluster.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < replicas && flush > 0; i++ {
		if err := cluster.Fault().StallCommits(i, flush); err != nil {
			cluster.Stop()
			return nil, err
		}
	}
	return cluster, nil
}

// shardCell drives txns transactions, depth in flight, through one
// session of a fresh sharded cluster.
func shardCell(p ShardBenchParams, shards int, withCross bool, txns int, flush time.Duration, opts []otpdb.Option, proc func(i int) (string, []otpdb.Value)) (Load, error) {
	cluster, err := shardCluster(p.Replicas, shards, withCross, flush, opts...)
	if err != nil {
		return Load{}, err
	}
	defer cluster.Stop()
	sess, err := cluster.Session(0)
	if err != nil {
		return Load{}, err
	}
	return drive(sess, txns, p.Depth, proc)
}

// scaleSweep runs one scaling sweep: aggregate pipelined throughput per
// shard count, speedup relative to the sweep's own 1-shard cell. flush
// is the modeled flush device (0: none), opts yields each cell's cluster
// options.
func scaleSweep(p ShardBenchParams, txns int, flush time.Duration, opts func(shards int) []otpdb.Option) ([]ShardScaleCell, error) {
	var cells []ShardScaleCell
	for _, s := range p.Shards {
		ld, err := shardCell(p, s, false, txns, flush, opts(s), func(i int) (string, []otpdb.Value) {
			return fmt.Sprintf("bump-c%d", i%s), nil
		})
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", s, err)
		}
		cells = append(cells, ShardScaleCell{Shards: s, Load: ld})
		cells[len(cells)-1].SpeedupVs1 = ld.PerSec / cells[0].PerSec
	}
	return cells, nil
}

// effectiveSleep measures what the host actually delivers for one
// modeled flush-device wait: transport.Dwell, the wait a stalled replica
// dwells in, which ends about the kernel's timer slack late.
func effectiveSleep(d time.Duration) time.Duration {
	const n = 64
	start := time.Now()
	for i := 0; i < n; i++ {
		transport.Dwell(d, nil)
	}
	return time.Since(start) / n
}

// ShardBench runs E12.
func ShardBench(p ShardBenchParams) (ShardReport, error) {
	rep := ShardReport{
		Replicas:             p.Replicas,
		FlushMicros:          float64(p.FlushDelay.Nanoseconds()) / 1e3,
		EffectiveFlushMicros: float64(effectiveSleep(p.FlushDelay).Nanoseconds()) / 1e3,
	}

	// Primary sweep: modeled per-group flush device.
	var err error
	rep.Scale, err = scaleSweep(p, p.Txns, p.FlushDelay, func(int) []otpdb.Option { return nil })
	if err != nil {
		return rep, fmt.Errorf("scale: %w", err)
	}

	// Honesty sweep: real per-commit fsync on the host filesystem. Each
	// cell gets a fresh durable directory.
	dir, err := os.MkdirTemp("", "otpdb-shardbench")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	rep.ScaleDurable, err = scaleSweep(p, p.DurableTxns, 0, func(s int) []otpdb.Option {
		return []otpdb.Option{
			otpdb.WithDurability(fmt.Sprintf("%s/s%d", dir, s)),
			otpdb.WithSyncPolicy(otpdb.SyncEveryCommit),
		}
	})
	if err != nil {
		return rep, fmt.Errorf("scale durable: %w", err)
	}

	for _, ratio := range p.CrossRatios {
		// Deterministic Bresenham-style interleaving of cross-shard
		// transactions at the requested ratio.
		cross, acc := 0, 0.0
		ld, err := shardCell(p, p.CrossShards, true, p.CrossTxns, p.FlushDelay, nil, func(i int) (string, []otpdb.Value) {
			acc += ratio
			if acc >= 1 {
				acc--
				cross++
				return "xfer", []otpdb.Value{otpdb.String(fmt.Sprintf("x%d", i))}
			}
			return fmt.Sprintf("bump-c%d", i%p.CrossShards), nil
		})
		if err != nil {
			return rep, fmt.Errorf("cross ratio=%.2f: %w", ratio, err)
		}
		rep.Cross = append(rep.Cross, ShardCrossCell{
			Shards: p.CrossShards, CrossPercent: ratio * 100, CrossTxns: cross, Load: ld,
		})
	}
	return rep, nil
}

// Table renders the report.
func (r ShardReport) Table() Table {
	t := Table{
		Title: "E12 — Horizontal sharding: aggregate commit throughput by shard count",
		Columns: []string{
			"cell", "n", "txn/s", "speedup", "mean", "p99",
		},
		Notes: []string{
			fmt.Sprintf("%d replica(s) per shard; one session pipelines across all shards", r.Replicas),
			fmt.Sprintf("scale cells: modeled per-commit flush device, nominal %.0fµs, calibrated %.0fµs on this host", r.FlushMicros, r.EffectiveFlushMicros),
			"durable cells: real fsync=commit on the host filesystem",
			"(the host fs journal serializes concurrent fsyncs, capping the durable sweep)",
		},
	}
	for _, c := range r.Scale {
		t.AddRow(fmt.Sprintf("scale shards=%d", c.Shards), fmt.Sprintf("%d", c.Count),
			fmt.Sprintf("%.0f", c.PerSec), fmt.Sprintf("%.2fx", c.SpeedupVs1),
			micros(c.Mean), micros(c.P99))
	}
	for _, c := range r.ScaleDurable {
		t.AddRow(fmt.Sprintf("durable shards=%d", c.Shards), fmt.Sprintf("%d", c.Count),
			fmt.Sprintf("%.0f", c.PerSec), fmt.Sprintf("%.2fx", c.SpeedupVs1),
			micros(c.Mean), micros(c.P99))
	}
	for _, c := range r.Cross {
		t.AddRow(fmt.Sprintf("cross shards=%d ratio=%.0f%%", c.Shards, c.CrossPercent),
			fmt.Sprintf("%d", c.Count), fmt.Sprintf("%.0f", c.PerSec),
			"-", micros(c.Mean), micros(c.P99))
	}
	return t
}
