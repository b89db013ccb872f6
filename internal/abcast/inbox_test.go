package abcast

import (
	"errors"
	"strings"
	"testing"
	"time"

	"otpdb/internal/consensus"
	"otpdb/internal/metrics"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// The ordering goroutine waits on the data stream's reception queue and
// nothing else: stage decisions, the body-retry timer, DefinitiveLog, Dump
// and Stop reach it as posted events.

// A consensus engine is started before the ordering engine that uses it,
// and decides a stage from its peers' proposal and acks whether or not its
// own site has proposed — so a decision can be there before the ordering
// goroutine has run once. It must be waiting in that goroutine's queue
// when it does.
func TestInboxDecisionBeforeFirstIteration(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	group := startOptimisticGroupOn(t, h.Endpoints()[:2])

	reg := metrics.NewRegistry()
	ep := h.Endpoint(2)
	cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 50 * time.Millisecond, Metrics: reg.Scope()})
	cons.Start()
	defer cons.Stop()
	late := NewOptimistic(ep, cons) // not started yet

	const msgs = 3
	for i := 0; i < msgs; i++ {
		if _, err := group[0].Broadcast(i); err != nil {
			t.Fatal(err)
		}
		siteEvents(t, group[0], 1, 5*time.Second)
	}
	testutil.Eventually(t, 5*time.Second, "site 2's consensus engine to decide every stage", func() bool {
		for _, s := range reg.Snapshot() {
			if s.Name == "consensus_decided_total" {
				return s.Value >= msgs
			}
		}
		return false
	})

	if err := late.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = late.Stop() }()
	events := siteEvents(t, late, msgs, 5*time.Second)
	checkLocalOrder(t, events)
	for i, id := range toOrder(events) {
		if want := (MsgID{Origin: 0, Seq: uint64(i + 1)}); id != want {
			t.Fatalf("site 2 TO position %d: %v, want %v", i, id, want)
		}
	}
}

// Dump and DefinitiveLog are answered in their turn by a running engine,
// and refused by a stopped one; Stop does not wait for its wake-up to come
// up behind everything queued.
func TestInboxQueriesAndStop(t *testing.T) {
	h := transport.NewHub(1)
	defer h.Close()
	ep := h.Endpoint(0)
	cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: time.Second})
	cons.Start()
	defer cons.Stop()
	o := NewOptimistic(ep, cons)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	const msgs = 5
	for i := 0; i < msgs; i++ {
		if _, err := o.Broadcast(i); err != nil {
			t.Fatal(err)
		}
	}
	siteEvents(t, o, msgs, 5*time.Second)
	if s := o.Dump(); !strings.Contains(s, "undecided=[] (0 proposed) pendingTO=[]") {
		t.Fatalf("Dump = %q", s)
	}
	log, err := o.DefinitiveLog(1, 0)
	if err != nil || len(log.Entries) != msgs || log.ResumeSeq != msgs {
		t.Fatalf("DefinitiveLog = %d entries, resume %d, %v; want %d, %d", len(log.Entries), log.ResumeSeq, err, msgs, msgs)
	}

	// A backlog of requests nobody will answer, then Stop.
	for i := 0; i < 50_000; i++ {
		_ = ep.Send(0, StreamData, BodyReq{IDs: []MsgID{{Origin: 0, Seq: 1}}})
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = o.Stop()
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	if s := o.Dump(); s != "engine stopped" {
		t.Fatalf("Dump after Stop = %q", s)
	}
	if _, err := o.DefinitiveLog(1, 0); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("DefinitiveLog after Stop = %v, want ErrClosed", err)
	}
}
