package abcast

import (
	"sync"
	"testing"
	"time"

	"otpdb/internal/consensus"
	"otpdb/internal/transport"
)

// boundedMessages is what TestBoundedState orders: enough to turn a
// 1024-entry ring over a hundred times.
const boundedMessages = 200_000

// TestBoundedState: once a message is TO-released nothing is kept for it
// but a position in the ring, and the ring does not grow. Two origins
// broadcast under jitter, so their messages are decided, and released,
// out of sequence order.
func TestBoundedState(t *testing.T) {
	n := boundedMessages
	if testing.Short() {
		n /= 10
	}
	const capEntries = 1024
	h := transport.NewHub(3, transport.WithJitter(100*time.Microsecond), transport.WithSeed(1))
	defer h.Close()
	engines, stopAll := startWindowGroup(t, h, WithDefLogCap(capEntries))

	// Each site counts its TO deliveries; an origin keeps at most depth of
	// its own messages in flight.
	const depth = 256
	tokens := [2]chan struct{}{make(chan struct{}, depth), make(chan struct{}, depth)}
	var consumers sync.WaitGroup
	for i, o := range engines {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for seen := 0; seen < n; {
				ev, ok := <-o.Deliveries()
				if !ok {
					t.Errorf("site %d: deliveries closed after %d of %d", i, seen, n)
					return
				}
				if ev.Kind != TO {
					continue
				}
				seen++
				if int(ev.ID.Origin) == i && i < len(tokens) {
					<-tokens[i]
				}
			}
		}()
	}
	for i := range tokens {
		go func() {
			for k := 0; k < n/2; k++ {
				tokens[i] <- struct{}{}
				if _, err := engines[i].Broadcast(k); err != nil {
					t.Errorf("origin %d: broadcast %d: %v", i, k, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { consumers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		t.Fatalf("not all sites TO-delivered %d messages: %s", n, engines[0].Dump())
	}

	stopAll()
	for i, o := range engines {
		sz := o.SizesStopped()
		t.Logf("site %d: %+v", i, sz)
		if sz.Live != 0 || sz.Undecided != 0 || sz.PendingTO != 0 {
			t.Errorf("site %d idle, yet holds %d live, %d undecided, %d pending", i, sz.Live, sz.Undecided, sz.PendingTO)
		}
		if sz.Ring > capEntries || sz.RingChunks > 1 {
			t.Errorf("site %d: ring holds %d entries in %d chunks, cap %d", i, sz.Ring, sz.RingChunks, capEntries)
		}
		if sz.Runs > 4 {
			t.Errorf("site %d: delivered sets are %d intervals for two gapless origins", i, sz.Runs)
		}
		if sz.FreeSlots > maxFreeSlots {
			t.Errorf("site %d: %d pooled slots, bound %d", i, sz.FreeSlots, maxFreeSlots)
		}
		if st := o.Stats(); st.TODelivered != uint64(n) || st.OptDelivered != uint64(n) {
			t.Errorf("site %d: %d Opt and %d TO events for %d messages", i, st.OptDelivered, st.TODelivered, n)
		}
	}
}

// scriptedEngine is site 0 of a group whose other two sites are the test:
// bodies reach it through h.Inject, and so do decisions, as the MsgDecide a
// peer would send. What it proposes itself never finds a quorum.
func scriptedEngine(t *testing.T, opts ...Option) (o *Optimistic, h *transport.Hub) {
	t.Helper()
	h = transport.NewHub(3)
	t.Cleanup(h.Close)
	cons := consensus.New(consensus.Config{Endpoint: h.Endpoint(0), RoundTimeout: time.Hour})
	cons.Start()
	o = NewOptimistic(h.Endpoint(0), cons, opts...)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = o.Stop()
		cons.Stop()
	})
	return o, h
}

// expectNext receives exactly the given events, in order.
func expectNext(t *testing.T, o *Optimistic, want ...Event) {
	t.Helper()
	for i, w := range want {
		select {
		case ev := <-o.Deliveries():
			if ev.Kind != w.Kind || ev.ID != w.ID {
				t.Fatalf("event %d = %v %v, want %v %v", i, ev.Kind, ev.ID, w.Kind, w.ID)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d (%v %v) never came: %s", i, w.Kind, w.ID, o.Dump())
		}
	}
}

// expectEvents receives exactly the given events, in order, and then
// nothing for a moment.
func expectEvents(t *testing.T, o *Optimistic, want ...Event) {
	t.Helper()
	expectNext(t, o, want...)
	select {
	case ev := <-o.Deliveries():
		t.Fatalf("unexpected %v %v", ev.Kind, ev.ID)
	case <-time.After(50 * time.Millisecond):
	}
}

// A second copy of a body that arrives after the message was TO-released —
// two peers answer one BodyReq — is not a new message: no Opt, no TO, and
// it is not proposed again.
func TestDuplicateBodyAfterRelease(t *testing.T) {
	o, h := scriptedEngine(t)
	id := MsgID{Origin: 1, Seq: 1}
	// Decided before the body is here: the engine asks for it.
	h.Inject(2, 0, consensus.Stream, consensus.MsgDecide{Inst: 1, Val: []MsgID{id}})
	h.Inject(1, 0, StreamData, DataMsg{ID: id, Payload: "x"})
	expectEvents(t, o, Event{Kind: Opt, ID: id}, Event{Kind: TO, ID: id})
	// The other peer's answer.
	h.Inject(2, 0, StreamData, DataMsg{ID: id, Payload: "x"})
	expectEvents(t, o)
	_ = o.Stop()
	if sz := o.SizesStopped(); sz.Live != 0 || sz.Undecided != 0 {
		t.Fatalf("the late copy is held: %+v", sz)
	}
	if st := o.Stats(); st.OptDelivered != 1 || st.TODelivered != 1 {
		t.Fatalf("stats after the late copy: %+v", st)
	}
}

// A rejoined site's first broadcast can run before its engine goroutine
// has replayed the backlog; it must still number past ResumeSeq, or it
// reuses the ID of a message it sent before the crash, whose replayed
// commit then answers the new submission.
func TestJoinedEngineNumbersPastResumeSeqAtOnce(t *testing.T) {
	h := transport.NewHub(3)
	t.Cleanup(h.Close)
	cons := consensus.New(consensus.Config{Endpoint: h.Endpoint(0), RoundTimeout: time.Hour})
	o := NewOptimistic(h.Endpoint(0), cons, WithJoin(JoinState{ResumeSeq: 41}))
	id, err := o.Broadcast("new")
	if err != nil || id != (MsgID{Origin: 0, Seq: 42}) {
		t.Fatalf("first broadcast after the join = %v, %v; want m0.42", id, err)
	}
}

// A site that joined from a bare checkpoint is sent, by the survivors'
// links, every body they queued while it was down. It knows none of those
// ids from its backlog; the donor's delivered sets are what tells it they
// are ordered already. A backlog entry that still waits for its body is
// the exception, and completes.
func TestJoinedEngineDropsReplayedBodies(t *testing.T) {
	waiting := MsgID{Origin: 1, Seq: 41}
	o, h := scriptedEngine(t, WithDefBase(100), WithJoin(JoinState{
		StartStage: 50,
		ResumeSeq:  1 << 20,
		Backlog: []DefEntry{
			{Seq: 101, ID: MsgID{Origin: 2, Seq: 7}, Payload: "b", HasBody: true},
			{Seq: 102, ID: waiting},
		},
		// What the donor had released: everything below the checkpoint and
		// the first backlog entry.
		Delivered: []SeqRange{{Origin: 1, Lo: 1, Hi: 40}, {Origin: 2, Lo: 1, Hi: 7}},
	}))
	first := MsgID{Origin: 2, Seq: 7}
	expectEvents(t, o, Event{Kind: Opt, ID: first}, Event{Kind: TO, ID: first})

	// The replay: bodies from below the checkpoint, and the first backlog
	// entry's again.
	for seq := uint64(1); seq <= 40; seq++ {
		h.Inject(1, 0, StreamData, DataMsg{ID: MsgID{Origin: 1, Seq: seq}, Payload: "old"})
	}
	h.Inject(2, 0, StreamData, DataMsg{ID: first, Payload: "b"})
	expectEvents(t, o)

	// The body the backlog waits for arrives the same way and is taken.
	h.Inject(1, 0, StreamData, DataMsg{ID: waiting, Payload: "w"})
	expectEvents(t, o, Event{Kind: Opt, ID: waiting}, Event{Kind: TO, ID: waiting})

	// A message nobody has ordered yet is new, as ever.
	fresh := MsgID{Origin: 1, Seq: 42}
	h.Inject(1, 0, StreamData, DataMsg{ID: fresh, Payload: "n"})
	expectEvents(t, o, Event{Kind: Opt, ID: fresh})

	_ = o.Stop()
	sz := o.SizesStopped()
	if sz.Live != 1 || sz.Undecided != 1 {
		t.Fatalf("only the fresh message may be held and proposed: %+v", sz)
	}
	if got := o.props[50%window]; o.stage != 51 || len(got) != 1 || got[0] != fresh {
		t.Fatalf("next stage %d, stage 50 proposed %v: want stage 50 opened for %v alone", o.stage, got, fresh)
	}
}
