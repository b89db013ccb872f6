package db

import (
	"testing"

	"otpdb/internal/abcast"
	"otpdb/internal/otp"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
)

// BenchmarkExecutorSubmit measures the executor's share of a commit up to
// the end of the procedure: Submit, the hand-over to a goroutine, the
// partition, and a procedure that reads and writes one key (its first map
// access is what used to grow a new goroutine's stack). The attempt is
// then aborted, which frees the partition for the next one.
func BenchmarkExecutorSubmit(b *testing.B) {
	executed := make(chan struct{})
	reg := sproc.NewRegistry()
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "stub",
		Class: "c",
		Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
			defer func() { executed <- struct{}{} }()
			v, _ := ctx.Read("k")
			return v, ctx.Write("k", storage.Int64Value(1))
		},
	}); err != nil {
		b.Fatal(err)
	}
	r, err := New(Config{Broadcast: NewScripted(0, nil), Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	tx := &otp.MultiTxn{Classes: []otp.ClassID{"c"}, Payload: sproc.Request{Proc: "stub"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.ID = abcast.MsgID{Seq: uint64(i + 1)}
		r.exec.Submit(tx, 0)
		<-executed
		r.exec.Abort(tx)
	}
}
