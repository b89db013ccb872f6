package experiments

import (
	"fmt"
	"os"
	"time"

	"otpdb"
	"otpdb/internal/recovery"
	"otpdb/internal/storage"
	"otpdb/internal/wal"
)

// This file is E9 (DESIGN.md §4): the durability benchmark. Two
// quantities the recovery subsystem trades in:
//
//   - recovery time as a function of log length, with and without a
//     checkpoint bounding replay — the knob WithCheckpointEvery turns;
//   - commit throughput under each WAL fsync policy against the
//     non-durable baseline — the price of WithDurability.

// RecoveryParams sizes E9.
type RecoveryParams struct {
	// LogLengths is the sweep of WAL record counts to recover from.
	LogLengths []int
	// WritesPerTxn is the number of key writes per logged commit.
	WritesPerTxn int
	// ValueBytes is the value size per write.
	ValueBytes int
	// FsyncTxns is the transaction count per fsync-policy cell.
	FsyncTxns int
}

// recoveryParams sizes E9; quick shrinks the sweep for CI smoke runs.
func recoveryParams(quick bool) RecoveryParams {
	p := RecoveryParams{
		LogLengths:   []int{5_000, 20_000, 50_000},
		WritesPerTxn: 2,
		ValueBytes:   64,
		FsyncTxns:    2000,
	}
	if quick {
		p.LogLengths = []int{2_000, 5_000}
		p.FsyncTxns = 400
	}
	return p
}

// RecoveryCell is one recovery-time measurement.
type RecoveryCell struct {
	// Records is the number of committed transactions on disk.
	Records int
	// Checkpointed reports whether a checkpoint at half the log bounded
	// the replay (the WithCheckpointEvery effect).
	Checkpointed bool
	// RecoveryMillis is the wall time of Open + Recover.
	RecoveryMillis float64
	// RecordsPerSec is Records / recovery time.
	RecordsPerSec float64
}

// FsyncCell is one fsync-policy throughput measurement.
type FsyncCell struct {
	// Policy is "none" (durability off), "off", "group" or "commit".
	Policy string
	Load
}

// RecoveryReport is E9's result.
type RecoveryReport struct {
	RecoveryTime []RecoveryCell
	FsyncPolicy  []FsyncCell
}

// RecoveryBench runs E9.
func RecoveryBench(p RecoveryParams) (RecoveryReport, error) {
	var rep RecoveryReport
	for _, n := range p.LogLengths {
		for _, checkpointed := range []bool{false, true} {
			cell, err := recoveryTimeCell(p, n, checkpointed)
			if err != nil {
				return rep, fmt.Errorf("recovery time (%d records): %w", n, err)
			}
			rep.RecoveryTime = append(rep.RecoveryTime, cell)
		}
	}
	for _, policy := range []string{"none", "off", "group", "commit"} {
		cell, err := fsyncPolicyCell(p, policy)
		if err != nil {
			return rep, fmt.Errorf("fsync policy %s: %w", policy, err)
		}
		rep.FsyncPolicy = append(rep.FsyncPolicy, cell)
	}
	return rep, nil
}

// recoveryTimeCell builds a data directory holding n committed
// transactions (optionally checkpointed halfway) and measures a cold
// Open + Recover into a fresh store.
func recoveryTimeCell(p RecoveryParams, n int, checkpointed bool) (RecoveryCell, error) {
	dir, err := os.MkdirTemp("", "otpdb-e9-*")
	if err != nil {
		return RecoveryCell{}, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	d, err := recovery.Open(dir, recovery.Options{Sync: wal.SyncNever})
	if err != nil {
		return RecoveryCell{}, err
	}
	live := storage.NewStore()
	value := make(storage.Value, p.ValueBytes)
	for i := 1; i <= n; i++ {
		writes := make([]storage.ClassKeyValue, p.WritesPerTxn)
		for w := range writes {
			writes[w] = storage.ClassKeyValue{
				Partition: storage.Partition(fmt.Sprintf("p%d", w)),
				Key:       storage.Key(fmt.Sprintf("key-%d", i%512)),
				Value:     value,
			}
		}
		rec := wal.Record{TOIndex: int64(i), Writes: writes}
		if err := d.Append(rec); err != nil {
			return RecoveryCell{}, err
		}
		live.InstallCommit(rec.TOIndex, rec.Writes)
		if checkpointed && i == n/2 {
			if !d.TryBeginCheckpoint() {
				return RecoveryCell{}, fmt.Errorf("checkpoint slot busy")
			}
			if err := d.Checkpoint(live.CheckpointAt(int64(i))); err != nil {
				return RecoveryCell{}, err
			}
		}
	}
	if err := d.Close(); err != nil {
		return RecoveryCell{}, err
	}

	start := time.Now()
	d2, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		return RecoveryCell{}, err
	}
	store := storage.NewStore()
	base, err := d2.Recover(store)
	elapsed := time.Since(start)
	_ = d2.Close()
	if err != nil {
		return RecoveryCell{}, err
	}
	if base != int64(n) {
		return RecoveryCell{}, fmt.Errorf("recovered to %d, want %d", base, n)
	}
	return RecoveryCell{
		Records:        n,
		Checkpointed:   checkpointed,
		RecoveryMillis: float64(elapsed.Nanoseconds()) / 1e6,
		RecordsPerSec:  float64(n) / elapsed.Seconds(),
	}, nil
}

// fsyncPolicyCell measures end-to-end commit throughput of a single-site
// durable cluster under one fsync policy ("none" = durability off).
func fsyncPolicyCell(p RecoveryParams, policy string) (FsyncCell, error) {
	opts := []otpdb.Option{otpdb.WithReplicas(1)}
	if policy != "none" {
		dir, err := os.MkdirTemp("", "otpdb-e9-fsync-*")
		if err != nil {
			return FsyncCell{}, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		sync, err := wal.ParseSyncPolicy(policy)
		if err != nil {
			return FsyncCell{}, err
		}
		opts = append(opts, otpdb.WithDurability(dir), otpdb.WithSyncPolicy(sync))
	}
	cluster, sess, err := counterSession(opts...)
	if err != nil {
		return FsyncCell{}, err
	}
	defer cluster.Stop()
	ld, err := drive(sess, p.FsyncTxns, 1, always("incr"))
	return FsyncCell{Policy: policy, Load: ld}, err
}

// Table renders E9 as the otpbench plain-text tables.
func (r RecoveryReport) Table() Table {
	t := Table{
		Title: "E9 — Durability & recovery",
		Columns: []string{
			"cell", "n", "txn/s or ms", "detail",
		},
	}
	for _, c := range r.RecoveryTime {
		kind := "full log replay"
		if c.Checkpointed {
			kind = "checkpoint + tail"
		}
		t.AddRow("recovery", fmt.Sprintf("%d", c.Records),
			fmt.Sprintf("%.1fms", c.RecoveryMillis),
			fmt.Sprintf("%s, %.0f rec/s", kind, c.RecordsPerSec))
	}
	for _, c := range r.FsyncPolicy {
		t.AddRow("fsync="+c.Policy, fmt.Sprintf("%d", c.Count),
			fmt.Sprintf("%.0f txn/s", c.PerSec),
			fmt.Sprintf("mean %s p99 %s", micros(c.Mean), micros(c.P99)))
	}
	return t
}
