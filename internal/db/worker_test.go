package db_test

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
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

// goid is the calling goroutine's id, read off its stack trace header
// ("goroutine 17 [running]:"): the only way a procedure can tell which
// executor worker it runs on.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _ := strconv.Atoi(string(bytes.Fields(buf)[1]))
	return id
}

// parkedWorkers lists the executor workers waiting for an attempt: the
// goroutines whose innermost frame is the worker loop itself.
func parkedWorkers() []int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var ids []int
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) < 2 || !strings.Contains(lines[1], "db.(*executor).worker(") {
			continue
		}
		id, _ := strconv.Atoi(strings.Fields(lines[0])[1])
		ids = append(ids, id)
	}
	return ids
}

// scriptedReplica is one replica on a scripted broadcaster: nothing is
// delivered until the test injects it.
type scriptedReplica struct {
	rep *db.Replica
	bc  *db.Scripted
}

func newScriptedReplica(t *testing.T, reg *sproc.Registry) *scriptedReplica {
	t.Helper()
	bc := db.NewScripted(0, func(abcast.MsgID, any) {})
	rep, err := db.New(db.Config{Broadcast: bc, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	return &scriptedReplica{rep: rep, bc: bc}
}

// submit broadcasts one call and returns its id, its request (to inject)
// and a channel closed at its commit.
func (s *scriptedReplica) submit(t *testing.T, proc string, args ...storage.Value) (abcast.MsgID, sproc.Request, chan struct{}) {
	t.Helper()
	done := make(chan struct{})
	id, err := s.rep.SubmitNotify(proc, args, func(db.CommitResult) { close(done) })
	if err != nil {
		t.Fatal(err)
	}
	return id, sproc.Request{Proc: proc, Args: args}, done
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func registerBump(t *testing.T, reg *sproc.Registry, name string, class sproc.ClassID, body func(sproc.UpdateCtx)) {
	t.Helper()
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  name,
		Class: class,
		Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
			if body != nil {
				body(ctx)
			}
			cur, _ := ctx.Read("n")
			next := storage.Int64Value(storage.ValueInt64(cur) + 1)
			return next, ctx.Write("n", next)
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// Transactions that follow one another reuse the executor's workers: ten
// thousand commits leave no more goroutines behind than the first few
// did, and Stop sends the workers home.
func TestWorkersFlatAcrossSequentialCommits(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := sproc.NewRegistry()
	registerBump(t, reg, "bump", "c", nil)
	s := newScriptedReplica(t, reg)
	commit := func() {
		id, req, done := s.submit(t, "bump")
		s.bc.InjectOpt(id, req)
		s.bc.InjectTO(id)
		waitFor(t, done, "commit")
	}
	for i := 0; i < 100; i++ {
		commit()
	}
	warm := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		commit()
	}
	// A submit can find the one worker on its way back to the channel and
	// start a second; it takes both being late at once to start a third.
	if now := runtime.NumGoroutine(); now > warm+4 {
		t.Fatalf("%d goroutines after 10100 commits, %d after 100", now, warm)
	}
	if v, _ := s.rep.Store().Get("c", "n"); storage.ValueInt64(v) != 10100 {
		t.Fatalf("counter is %d after 10100 commits", storage.ValueInt64(v))
	}
	s.rep.Stop()
	_ = s.bc.Stop()
	testutil.Eventually(t, 5*time.Second, "workers to leave after Stop", func() bool {
		return len(parkedWorkers()) == 0 && runtime.NumGoroutine() <= base
	})
}

// A procedure parked on Definitive() keeps its worker for as long as its
// confirmation is out; a transaction of another class submitted
// meanwhile must find no worker parked and be given a new one.
func TestParkedProcedureDoesNotDelayAnotherClass(t *testing.T) {
	reg := sproc.NewRegistry()
	parked := make(chan struct{})
	registerBump(t, reg, "wait-a", "a", func(ctx sproc.UpdateCtx) {
		close(parked)
		<-ctx.(sproc.TxnControl).Definitive()
	})
	registerBump(t, reg, "bump-b", "b", nil)
	s := newScriptedReplica(t, reg)
	defer s.rep.Stop()

	// One commit, so that exactly one worker exists and is parked.
	id, req, done := s.submit(t, "bump-b")
	s.bc.InjectOpt(id, req)
	s.bc.InjectTO(id)
	waitFor(t, done, "the first commit")
	testutil.Eventually(t, 5*time.Second, "the worker to park", func() bool {
		return len(parkedWorkers()) == 1
	})

	idA, reqA, doneA := s.submit(t, "wait-a")
	s.bc.InjectOpt(idA, reqA)
	waitFor(t, parked, "the procedure of class a to park on Definitive")
	if n := len(parkedWorkers()); n != 0 {
		t.Fatalf("%d workers parked while the only one runs class a", n)
	}

	id, req, done = s.submit(t, "bump-b")
	s.bc.InjectOpt(id, req)
	s.bc.InjectTO(id)
	waitFor(t, done, "class b to commit while class a waits for its confirmation")
	select {
	case <-doneA:
		t.Fatal("class a committed without its confirmation")
	default:
	}

	s.bc.InjectTO(idA)
	waitFor(t, doneA, "class a to commit")
}

// The correctness check aborts a transaction whose procedure is running
// on a reused worker; the worker comes back, takes the resubmission and
// commits it.
func TestAbortMidProcedureThenCommitOnSameWorker(t *testing.T) {
	reg := sproc.NewRegistry()
	var xRuns atomic.Int32
	xWorker := make(chan int, 2)
	xRunning := make(chan struct{})
	yStarted := make(chan struct{})
	yGo := make(chan struct{})
	registerBump(t, reg, "x", "c", func(ctx sproc.UpdateCtx) {
		xWorker <- goid()
		if xRuns.Add(1) == 1 {
			close(xRunning)
			// Mid-procedure until aborted — and until y has been given a
			// worker, which therefore cannot be this one.
			<-ctx.(sproc.TxnControl).AbortSignal()
			<-yStarted
		}
	})
	registerBump(t, reg, "y", "c", func(sproc.UpdateCtx) {
		close(yStarted)
		<-yGo
	})
	registerBump(t, reg, "warm", "c", nil)
	s := newScriptedReplica(t, reg)
	defer s.rep.Stop()

	id, req, done := s.submit(t, "warm")
	s.bc.InjectOpt(id, req)
	s.bc.InjectTO(id)
	waitFor(t, done, "the first commit")
	var worker int
	testutil.Eventually(t, 5*time.Second, "the worker to park", func() bool {
		ws := parkedWorkers()
		if len(ws) == 1 {
			worker = ws[0]
		}
		return len(ws) == 1
	})

	// x runs on that worker; y, behind it in the class queue, is confirmed
	// first: x is aborted mid-procedure and y runs.
	idX, reqX, doneX := s.submit(t, "x")
	idY, reqY, doneY := s.submit(t, "y")
	s.bc.InjectOpt(idX, reqX)
	waitFor(t, xRunning, "x to run")
	if got := <-xWorker; got != worker {
		t.Fatalf("x ran on goroutine %d, the parked worker is %d", got, worker)
	}
	s.bc.InjectOpt(idY, reqY)
	s.bc.InjectTO(idY)
	waitFor(t, yStarted, "y to run after x's abort")

	// The aborted attempt returns and its worker parks again; then y
	// commits and x is resubmitted — to the only worker parked.
	testutil.Eventually(t, 5*time.Second, "x's worker to park after the abort", func() bool {
		ws := parkedWorkers()
		return len(ws) == 1 && ws[0] == worker
	})
	close(yGo)
	waitFor(t, doneY, "y to commit")
	s.bc.InjectTO(idX)
	waitFor(t, doneX, "x to commit")
	if got := <-xWorker; got != worker {
		t.Fatalf("x's second attempt ran on goroutine %d, want worker %d again", got, worker)
	}
	if got := xRuns.Load(); got != 2 {
		t.Fatalf("x's body ran %d times, want 2", got)
	}
	if v, _ := s.rep.Store().Get("c", "n"); storage.ValueInt64(v) != 3 {
		t.Fatalf("counter is %d after three commits", storage.ValueInt64(v))
	}
}

// An attempt struct serves one transaction after another, and two of the
// things it carries are signals: the abort channel, closed when the
// correctness check undoes the attempt, and the definitive channel. A
// transaction that gets the struct of one aborted mid-procedure, or of one
// that started out definitive, must find neither signal given.
func TestRecycledAttemptStartsClean(t *testing.T) {
	var stale atomic.Int32 // bodies that found a signal nobody gave them
	signals := func(ctx sproc.UpdateCtx) (aborted, definitive bool) {
		tc := ctx.(sproc.TxnControl)
		select {
		case <-tc.AbortSignal():
			aborted = true
		default:
		}
		select {
		case <-tc.Definitive():
			definitive = true
		default:
		}
		return aborted, definitive
	}
	for round := 0; round < 25; round++ {
		reg := sproc.NewRegistry()
		var xRuns atomic.Int32
		xRunning, release := make(chan struct{}), make(chan struct{})
		holding, freshRunning := make(chan struct{}), make(chan struct{})
		startedDefinitive := make(chan bool, 1)
		registerBump(t, reg, "x", "c", func(ctx sproc.UpdateCtx) {
			// The second attempt may be confirmed before its body runs.
			first := xRuns.Add(1) == 1
			if a, d := signals(ctx); a || d && first {
				stale.Add(1)
			}
			if first {
				close(xRunning)
				<-ctx.(sproc.TxnControl).AbortSignal()
			}
		})
		registerBump(t, reg, "plain", "c", func(ctx sproc.UpdateCtx) {
			if a, _ := signals(ctx); a {
				stale.Add(1)
			}
		})
		registerBump(t, reg, "hold", "c", func(ctx sproc.UpdateCtx) {
			if a, d := signals(ctx); a || d {
				stale.Add(1)
			}
			close(holding)
			<-release
		})
		registerBump(t, reg, "late", "c", func(ctx sproc.UpdateCtx) {
			a, d := signals(ctx)
			if a {
				stale.Add(1)
			}
			startedDefinitive <- d
		})
		registerBump(t, reg, "fresh", "c", func(ctx sproc.UpdateCtx) {
			if a, d := signals(ctx); a || d {
				stale.Add(1)
			}
			close(freshRunning)
			<-ctx.(sproc.TxnControl).Definitive()
		})
		s := newScriptedReplica(t, reg)
		stop := sync.OnceFunc(func() {
			s.rep.Stop()
			_ = s.bc.Stop()
		})
		t.Cleanup(stop)

		// x is aborted mid-procedure by the confirmation of the one behind
		// it, runs again and commits.
		idX, reqX, doneX := s.submit(t, "x")
		idY, reqY, doneY := s.submit(t, "plain")
		s.bc.InjectOpt(idX, reqX)
		waitFor(t, xRunning, "x to run")
		s.bc.InjectOpt(idY, reqY)
		s.bc.InjectTO(idY)
		waitFor(t, doneY, "the confirmed transaction to commit")
		s.bc.InjectTO(idX)
		waitFor(t, doneX, "x to commit")

		// late is confirmed while hold still runs ahead of it: its attempt
		// starts out definitive.
		idH, reqH, doneH := s.submit(t, "hold")
		idL, reqL, doneL := s.submit(t, "late")
		s.bc.InjectOpt(idH, reqH)
		waitFor(t, holding, "hold to run")
		s.bc.InjectTO(idH)
		s.bc.InjectOpt(idL, reqL)
		s.bc.InjectTO(idL)
		testutil.Eventually(t, 5*time.Second, "late's confirmation to reach the replica", func() bool {
			return s.rep.LastTO() == 4
		})
		close(release)
		waitFor(t, doneH, "hold to commit")
		waitFor(t, doneL, "late to commit")
		if !<-startedDefinitive {
			t.Fatal("a transaction confirmed before it ran did not start out definitive")
		}

		// fresh gets one of the structs those left behind.
		idF, reqF, doneF := s.submit(t, "fresh")
		s.bc.InjectOpt(idF, reqF)
		waitFor(t, freshRunning, "fresh to run")
		select {
		case <-doneF:
			t.Fatal("fresh committed without its confirmation")
		case <-time.After(time.Millisecond):
		}
		s.bc.InjectTO(idF)
		waitFor(t, doneF, "fresh to commit")

		if v, _ := s.rep.Store().Get("c", "n"); storage.ValueInt64(v) != 5 {
			t.Fatalf("round %d: counter is %d after five commits", round, storage.ValueInt64(v))
		}
		stop()
		if n := stale.Load(); n != 0 {
			t.Fatalf("round %d: %d procedure bodies started with a signal left over from another transaction", round, n)
		}
	}
}
