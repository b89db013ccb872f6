package db_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/db"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/testutil"
)

// A Submit the scheduler deferred can reach the executor after the
// transaction it is for has been aborted, resubmitted, executed and
// committed by other goroutines: the goroutine carrying it was held up in
// the commit that produced it. The epoch fence is gone by then (Commit
// removes it), so the executor has to notice for itself that the
// transaction is done — otherwise it runs the body a second time in a
// storage transaction nobody will ever finish, and the conflict class
// stays blocked at this site for good.
func TestStaleSubmitAfterCommitIsDropped(t *testing.T) {
	gateA := make(chan struct{})
	var runs [4]atomic.Int32 // executions of each transaction's body
	reg := sproc.NewRegistry()
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "bump",
		Class: "c",
		Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
			which := storage.ValueInt64(ctx.Args()[0])
			runs[which].Add(1)
			if which == 0 {
				<-gateA
			}
			cur, _ := ctx.Read("n")
			next := storage.Int64Value(storage.ValueInt64(cur) + 1)
			return next, ctx.Write("n", next)
		},
	}); err != nil {
		t.Fatal(err)
	}
	var ids []abcast.MsgID
	bc := db.NewScripted(0, func(id abcast.MsgID, _ any) { ids = append(ids, id) })
	rep, err := db.New(db.Config{Broadcast: bc, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer rep.Stop()

	// a, b, c, d in class c. Only a's commit callback dawdles.
	holdA := make(chan struct{})
	var releaseA sync.Once
	defer releaseA.Do(func() { close(holdA) }) // before Stop, also when the test fails
	var committed [4]chan struct{}
	for i := range committed {
		committed[i] = make(chan struct{})
		done := committed[i]
		hold := i == 0
		if _, err := rep.SubmitNotify("bump", []storage.Value{storage.Int64Value(int64(i))}, func(db.CommitResult) {
			close(done)
			if hold {
				<-holdA
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]

	// a is confirmed while its body still runs; when the body returns, a's
	// own goroutine commits it and is due to submit b, the new head — but
	// first it sits in a's commit callback.
	bc.InjectOpt(a, sproc.Request{Proc: "bump", Args: []storage.Value{storage.Int64Value(0)}})
	bc.InjectOpt(b, sproc.Request{Proc: "bump", Args: []storage.Value{storage.Int64Value(1)}})
	bc.InjectTO(a)
	testutil.Eventually(t, 5*time.Second, "a's confirmation to reach the scheduler", func() bool {
		return rep.Manager().LastTOIndex() == 1
	})
	close(gateA)
	wait(committed[0], "a to commit")

	// Meanwhile c is confirmed ahead of b: b is aborted, c runs and
	// commits, b is resubmitted, runs, is confirmed and commits.
	bc.InjectOpt(c, sproc.Request{Proc: "bump", Args: []storage.Value{storage.Int64Value(2)}})
	bc.InjectTO(c)
	wait(committed[2], "c to commit")
	bc.InjectTO(b)
	wait(committed[1], "b to commit")

	// Now the first submission of b arrives.
	releaseA.Do(func() { close(holdA) })
	bc.InjectOpt(d, sproc.Request{Proc: "bump", Args: []storage.Value{storage.Int64Value(3)}})
	bc.InjectTO(d)
	wait(committed[3], "d to commit behind the stale submission of b")
	if got := runs[1].Load(); got != 1 {
		t.Fatalf("b's body ran %d times, want once", got)
	}
	if v, _ := rep.Store().Get("c", "n"); storage.ValueInt64(v) != 4 {
		t.Fatalf("counter is %d after four commits", storage.ValueInt64(v))
	}
}
