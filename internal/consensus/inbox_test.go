package consensus

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// The engine goroutine waits on its stream's reception queue and nothing
// else: Propose, the deadline tick, SetSink, Dump and Stop all reach it as
// posted events. These tests drive that queue through a started engine.

// loneEngine is a started one-member engine: it decides whatever it
// proposes by itself.
func loneEngine(t *testing.T, timeout time.Duration) (*Engine, transport.Endpoint) {
	t.Helper()
	h := transport.NewHub(1)
	t.Cleanup(h.Close)
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: timeout})
	e.Start()
	t.Cleanup(e.Stop)
	return e, h.Endpoint(0)
}

// A stop must not wait out what is queued ahead of its wake-up: the flag
// is looked at before every event.
func TestInboxStopOvertakesBacklog(t *testing.T) {
	e, ep := loneEngine(t, time.Hour)
	// Hold the engine goroutine inside a decision while the backlog builds.
	entered, release := make(chan struct{}), make(chan struct{})
	e.SetSink(func(*Decision) {
		close(entered)
		<-release
	})
	if err := e.Propose(1, "v"); err != nil {
		t.Fatal(err)
	}
	<-entered
	const backlog = 100_000
	for i := 0; i < backlog; i++ {
		if err := ep.Send(0, Stream, MsgDecideReq{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		e.Stop()
	}()
	testutil.Eventually(t, 5*time.Second, "Stop to raise its flag", e.stopped.Load)
	start := time.Now()
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop is waiting out the backlog")
	}
	t.Logf("Stop returned %v after the engine goroutine was released", time.Since(start))
	// The backlog is still there: the engine handled the event it was in
	// and at most one more.
	left := 0
	in := ep.Subscribe(Stream)
	for idle := time.NewTimer(time.Second); ; idle.Reset(time.Second) {
		select {
		case <-in:
			left++
			continue
		case <-idle.C:
		}
		break
	}
	if left < backlog-1 {
		t.Fatalf("%d of %d queued messages left after Stop: the engine worked through the rest first", left, backlog)
	}
	if err := e.Propose(2, "late"); err != ErrStopped {
		t.Fatalf("Propose after Stop = %v, want ErrStopped", err)
	}
}

// Dump is one more event in the queue: it is answered in its turn however
// much traffic surrounds it, with the state as of that turn.
func TestInboxDumpAnswersUnderLoad(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	// Alone of three, the engine decides nothing: instance 7 stays open.
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: time.Hour})
	e.Start()
	defer e.Stop()
	if err := e.Propose(7, "v"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 5000; i++ {
			_ = h.Endpoint(1).Send(0, Stream, MsgAck{Inst: 7, Round: 3, Epoch: 9})
		}
		reply := make(chan string, 1)
		go func() { reply <- e.Dump() }()
		select {
		case s := <-reply:
			if !strings.Contains(s, "inst=7 round=0 started=true") {
				t.Fatalf("round %d: Dump = %q", round, s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: no answer from Dump", round)
		}
	}
	e.Stop()
	if s := e.Dump(); s != "engine stopped" {
		t.Fatalf("Dump after Stop = %q", s)
	}
}

// The deadline timer belongs to the engine goroutine: re-armed when a tick
// has been handled, stopped when the loop ends. After Stop nothing posts.
func TestInboxNoTimerAfterStop(t *testing.T) {
	before := runtime.NumGoroutine()
	h := transport.NewHub(1)
	defer h.Close()
	const tick = 2 * time.Millisecond
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: ticksPerRound * tick})
	e.Start()
	if err := e.Propose(1, "v"); err != nil {
		t.Fatal(err)
	}
	if got := collectDecision(t, e, 1, 5*time.Second); got != "v" {
		t.Fatalf("decided %v", got)
	}
	time.Sleep(10 * tick)
	e.Stop()
	// The goroutine has exited: its state is safe to read.
	if e.tick == 0 {
		t.Fatalf("no tick in %v", 10*tick)
	}
	// A callback that was already running when the loop ended may still
	// post once. Nothing follows it.
	in := h.Endpoint(0).Subscribe(Stream)
	time.Sleep(10 * tick)
	for len(in) > 0 {
		<-in
	}
	time.Sleep(20 * tick)
	if n := len(in); n > 0 {
		t.Fatalf("%d events posted after Stop", n)
	}
	testutil.Eventually(t, 5*time.Second, "the engine's goroutines to be gone", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// Ticks are the engine's clock: a round's deadline is a tick number, and a
// round-0 coordinator that never answers is left behind after the ticks a
// round is worth, not before.
func TestInboxDeadlinesCountTicks(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	h.Crash(0) // the round-0 coordinator
	const tick = 5 * time.Millisecond
	engines := make([]*Engine, 3)
	for i := 1; i < 3; i++ {
		engines[i] = New(Config{Endpoint: h.Endpoint(transport.NodeID(i)), RoundTimeout: ticksPerRound * tick})
		engines[i].Start()
		defer engines[i].Stop()
	}
	start := time.Now()
	for i := 1; i < 3; i++ {
		if err := engines[i].Propose(1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 3; i++ {
		if got := collectDecision(t, engines[i], 1, 10*time.Second); got != "v" {
			t.Fatalf("engine %d decided %v", i, got)
		}
	}
	if d := time.Since(start); d < 4*tick {
		t.Fatalf("round 0 was given up after %v, before its timeout of %v", d, 4*tick)
	}
}

// SetSink on a running engine: what was decided before it took effect is
// handed to the sink first, in order — also when it had outgrown the
// queue's buffer — and nothing goes to Decisions afterwards.
func TestInboxSinkTakesOverQueuedDecisions(t *testing.T) {
	e, _ := loneEngine(t, time.Hour)
	const early, late = 300, 50
	for inst := uint64(1); inst <= early; inst++ {
		if err := e.Propose(inst, inst); err != nil {
			t.Fatal(err)
		}
	}
	// Dump is answered behind the proposals, and a lone engine decides in
	// the act of proposing.
	if s := e.Dump(); !strings.Contains(s, "all-decided") {
		t.Fatalf("early instances undecided: %s", s)
	}
	got := make(chan Decision, early+late)
	e.SetSink(func(d *Decision) { got <- *d })
	for inst := uint64(early + 1); inst <= early+late; inst++ {
		if err := e.Propose(inst, inst); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint64(1); want <= early+late; want++ {
		select {
		case d := <-got:
			if d.Instance != want || d.Value != want {
				t.Fatalf("sink got %+v at position %d", d, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sink got %d of %d decisions", want-1, early+late)
		}
	}
	select {
	case d := <-e.Decisions():
		t.Fatalf("Decisions delivered %+v beside the sink", d)
	default:
	}
}
