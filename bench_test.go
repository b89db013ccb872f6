package otpdb_test

// One benchmark per paper artifact (see DESIGN.md §4 for the experiment
// index) plus micro-benchmarks for the ablations called out in DESIGN.md
// §5. The macro benchmarks wrap the experiment harness with reduced
// parameters and export the headline quantity via b.ReportMetric; run
// cmd/otpbench for the full tables.

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"otpdb"
	"otpdb/internal/abcast"
	"otpdb/internal/experiments"
	"otpdb/internal/otp"
	"otpdb/internal/storage"
)

// BenchmarkFigure1SpontaneousOrder regenerates one E1 cell per iteration
// — two origins broadcasting every 8 δ on wan_jitter's link — and reports
// its spontaneously ordered share and reorder share.
func BenchmarkFigure1SpontaneousOrder(b *testing.B) {
	const delay = 500 * time.Microsecond
	percent := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	var ordered, reorders float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure1(experiments.Figure1Params{
			Origins:   []int{2},
			PerOrigin: 60,
			Delay:     delay,
			Jitter:    200 * time.Microsecond,
			Intervals: []time.Duration{8 * delay},
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		ordered, reorders = percent(t.Rows[0][4]), percent(t.Rows[0][5])
	}
	b.ReportMetric(ordered, "%ordered")
	b.ReportMetric(reorders, "reorder%")
}

// BenchmarkAbortRate regenerates E2 cells: abort rate per committed
// transaction under 25% adjacent-swap mismatch, by class count. The
// paper's §3.2 claim is visible in the falling aborts/commit metric.
func BenchmarkAbortRate(b *testing.B) {
	for _, classes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			var aborts, commits uint64
			for i := 0; i < b.N; i++ {
				st := experiments.AbortRateCell(500, classes, 0.25, int64(i))
				aborts += st.Aborts
				commits += st.Commits
			}
			b.ReportMetric(100*float64(aborts)/float64(commits), "aborts%")
		})
	}
}

// BenchmarkOTPManager measures the raw event-processing throughput of the
// core scheduler: one Opt+TO+execution cycle per iteration.
func BenchmarkOTPManager(b *testing.B) {
	exec := &autoExec{}
	mgr := otp.NewMultiManager(exec, otp.MultiHooks{})
	exec.mgr = mgr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := abcast.MsgID{Origin: 0, Seq: uint64(i + 1)}
		if err := mgr.OnOptDeliver(id, oneClass, nil); err != nil {
			b.Fatal(err)
		}
		if err := mgr.OnTODeliver(id); err != nil {
			b.Fatal(err)
		}
	}
	if mgr.Pending() != 0 {
		b.Fatal("transactions stuck")
	}
}

// oneClass is the class set of every scheduler micro-benchmark
// transaction: the paper's one-class-per-transaction model.
var oneClass = []otp.ClassID{"c"}

// autoExec completes executions synchronously.
type autoExec struct{ mgr *otp.MultiManager }

func (e *autoExec) Submit(tx *otp.MultiTxn, epoch int) { e.mgr.OnExecuted(tx.ID, epoch) }
func (e *autoExec) Abort(*otp.MultiTxn)                {}
func (e *autoExec) Commit(*otp.MultiTxn)               {}

// BenchmarkOTPManagerWithMismatch measures the scheduler including the
// abort/reorder path: every other TO confirmation contradicts the
// tentative order.
func BenchmarkOTPManagerWithMismatch(b *testing.B) {
	exec := &autoExec{}
	mgr := otp.NewMultiManager(exec, otp.MultiHooks{})
	exec.mgr = mgr
	b.ResetTimer()
	seq := uint64(0)
	for i := 0; i < b.N; i++ {
		a := abcast.MsgID{Origin: 0, Seq: seq + 1}
		c := abcast.MsgID{Origin: 0, Seq: seq + 2}
		seq += 2
		if err := mgr.OnOptDeliver(a, oneClass, nil); err != nil {
			b.Fatal(err)
		}
		if err := mgr.OnOptDeliver(c, oneClass, nil); err != nil {
			b.Fatal(err)
		}
		// Definitive order reverses the tentative one.
		if err := mgr.OnTODeliver(c); err != nil {
			b.Fatal(err)
		}
		if err := mgr.OnTODeliver(a); err != nil {
			b.Fatal(err)
		}
	}
	st := mgr.Stats()
	b.ReportMetric(float64(st.Aborts)/float64(b.N), "aborts/op")
}

// BenchmarkStorageCommit measures one buffered transaction of four
// writes committed as versions.
func BenchmarkStorageCommit(b *testing.B) {
	s := storage.NewStore()
	val := storage.Int64Value(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := s.Begin("p", storage.Buffered)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			_ = tx.Write(storage.Key(fmt.Sprintf("k%d", k)), val)
		}
		if err := tx.Commit(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageAbort measures rolling back a transaction of four
// writes to existing keys: the buffer is discarded.
func BenchmarkStorageAbort(b *testing.B) {
	s := storage.NewStore()
	for k := 0; k < 4; k++ {
		s.Load("p", storage.Key(fmt.Sprintf("k%d", k)), storage.Int64Value(0))
	}
	val := storage.Int64Value(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := s.Begin("p", storage.Buffered)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			_ = tx.Write(storage.Key(fmt.Sprintf("k%d", k)), val)
		}
		if err := tx.Abort(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRead measures Section 5 snapshot reads against a deep
// version chain.
func BenchmarkSnapshotRead(b *testing.B) {
	s := storage.NewStore()
	for i := int64(1); i <= 1000; i++ {
		tx, _ := s.Begin("p", storage.Buffered)
		_ = tx.Write("k", storage.Int64Value(i))
		if err := tx.Commit(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SnapshotRead("p", "k", int64(i%1000)+1); !ok {
			b.Fatal("missing version")
		}
	}
}

// BenchmarkSnapshotReadParallel measures the lock-free read path under
// reader concurrency: snapshot reads scale with GOMAXPROCS because they
// take no locks at all.
func BenchmarkSnapshotReadParallel(b *testing.B) {
	s := storage.NewStore()
	for i := int64(1); i <= 1000; i++ {
		tx, _ := s.Begin("p", storage.Buffered)
		_ = tx.Write("k", storage.Int64Value(i))
		if err := tx.Commit(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := s.SnapshotRead("p", "k", int64(i%1000)+1); !ok {
				b.Error("missing version")
				return
			}
			i++
		}
	})
}

// BenchmarkStoreSeed measures what a three-site cluster spends seeding
// before it answers: three fresh stores of 8 classes × 1 024 keys of 136
// bytes each, reported per seeded key. "load" seeds each store key by key
// (Store.Load, as the bench's hand-assembled stack does); "image"
// installs one checkpoint into all three, as the facade does.
func BenchmarkStoreSeed(b *testing.B) {
	const sites, classes, keys = 3, 8, 1024
	parts := make([]storage.Partition, classes)
	for i := range parts {
		parts[i] = storage.Partition(fmt.Sprintf("c%d", i))
	}
	names := make([]storage.Key, keys)
	for i := range names {
		names[i] = storage.Key(fmt.Sprintf("k%04d", i))
	}
	val := make(storage.Value, 136)
	perKey := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sites*classes*keys), "ns/key")
	}
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for range sites {
				s := storage.NewStore()
				for _, p := range parts {
					for _, k := range names {
						s.Load(p, k, val)
					}
				}
			}
		}
		perKey(b)
	})
	b.Run("image", func(b *testing.B) {
		img := &storage.Checkpoint{}
		for _, p := range parts {
			pc := storage.PartitionCheckpoint{Partition: p}
			for _, k := range names {
				pc.Keys = append(pc.Keys, storage.KeyVersion{Key: k, Value: bytes.Clone(val)})
			}
			img.Partitions = append(img.Partitions, pc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for range sites {
				storage.NewStore().InstallCheckpoint(img)
			}
		}
		perKey(b)
	})
}

// BenchmarkStorageCommitSharded measures per-partition commit
// independence: interleaved commits across 8 partitions, which under the
// old store-wide lock serialized on one mutex.
func BenchmarkStorageCommitSharded(b *testing.B) {
	const parts = 8
	s := storage.NewStore()
	val := storage.Int64Value(42)
	next := make([]int64, parts)
	names := make([]storage.Partition, parts)
	for p := range names {
		names[p] = storage.Partition(fmt.Sprintf("p%d", p))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % parts
		tx, err := s.Begin(names[p], storage.Buffered)
		if err != nil {
			b.Fatal(err)
		}
		_ = tx.Write("k", val)
		next[p]++
		if err := tx.Commit(next[p]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndCommit measures full-stack commit latency on a
// 3-replica cluster: broadcast, optimistic execution, consensus
// confirmation, commit.
func BenchmarkEndToEndCommit(b *testing.B) {
	cluster, err := otpdb.NewCluster(otpdb.WithReplicas(3))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	cluster.MustRegisterUpdate(otpdb.Update{
		Name:  "bump",
		Class: "c",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			v, _ := ctx.Read("k")
			next := otpdb.Int64(otpdb.AsInt64(v) + 1)
			return next, ctx.Write("k", next)
		},
	})
	if err := cluster.Start(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cluster.Exec(ctx, i%3, "bump"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndQuery measures local snapshot queries on the same
// cluster shape.
func BenchmarkEndToEndQuery(b *testing.B) {
	cluster, err := otpdb.NewCluster(otpdb.WithReplicas(3))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	cluster.MustRegisterUpdate(otpdb.Update{
		Name:  "bump",
		Class: "c",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			v, _ := ctx.Read("k")
			next := otpdb.Int64(otpdb.AsInt64(v) + 1)
			return next, ctx.Write("k", next)
		},
	})
	cluster.MustRegisterQuery(otpdb.Query{
		Name: "read",
		Fn: func(ctx otpdb.QueryCtx) (otpdb.Value, error) {
			v, _ := ctx.Read("c", "k")
			return v, nil
		},
	})
	if err := cluster.Start(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := cluster.Exec(ctx, 0, "bump"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.QueryAt(ctx, i%3, "read"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlapLatency regenerates one E3 cell per ordering mode and
// reports the measured commit latency (model: OTP ~= max(E,D),
// conservative ~= E+D with E = D = 2ms).
func BenchmarkOverlapLatency(b *testing.B) {
	experimentsOverlap := func(optimistic bool) time.Duration {
		p := experiments.OverlapParams{
			ExecTime:  2 * time.Millisecond,
			NetDelays: []time.Duration{time.Millisecond}, // D = two delays
			Txns:      10,
		}
		t, err := experiments.Overlap(p)
		if err != nil {
			b.Fatal(err)
		}
		col := 2 // OTP mean column
		if !optimistic {
			col = 3
		}
		d, err := time.ParseDuration(t.Rows[0][col])
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("otp", func(b *testing.B) {
		var last time.Duration
		for i := 0; i < b.N; i++ {
			last = experimentsOverlap(true)
		}
		b.ReportMetric(float64(last.Microseconds()), "µs/commit")
	})
	b.Run("conservative", func(b *testing.B) {
		var last time.Duration
		for i := 0; i < b.N; i++ {
			last = experimentsOverlap(false)
		}
		b.ReportMetric(float64(last.Microseconds()), "µs/commit")
	})
}
