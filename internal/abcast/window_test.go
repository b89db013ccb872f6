package abcast

import (
	"slices"
	"sync"
	"testing"
	"time"

	"otpdb/internal/consensus"
	"otpdb/internal/transport"
)

// startWindowGroup is one engine per endpoint of h, with a round timeout no
// test waits out.
func startWindowGroup(t *testing.T, h *transport.Hub, opts ...Option) (group []*Optimistic, stopAll func()) {
	t.Helper()
	var stops []func()
	for _, ep := range h.Endpoints() {
		cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: time.Second})
		cons.Start()
		o := NewOptimistic(ep, cons, opts...)
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		group = append(group, o)
		stops = append(stops, func() { _ = o.Stop(); cons.Stop() })
	}
	stopAll = sync.OnceFunc(func() {
		for _, stop := range stops {
			stop()
		}
	})
	t.Cleanup(stopAll)
	return group, stopAll
}

// runOrigins has each of the first origins sites broadcast perOrigin
// messages, at most depth of its own undelivered at a time, and returns
// every site's TO sequence and the most stages it was seen to have open
// (looked at whenever an event is taken from it).
func runOrigins(t *testing.T, group []*Optimistic, origins, perOrigin, depth int) (orders [][]MsgID, maxOpen []int32) {
	t.Helper()
	total := origins * perOrigin
	orders = make([][]MsgID, len(group))
	maxOpen = make([]int32, len(group))
	tokens := make([]chan struct{}, origins)
	for i := range tokens {
		tokens[i] = make(chan struct{}, depth)
	}
	var consumers sync.WaitGroup
	for i, o := range group {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			opted := make(map[MsgID]bool, total)
			for len(orders[i]) < total {
				ev, ok := <-o.Deliveries()
				if !ok {
					t.Errorf("site %d: deliveries closed after %d of %d", i, len(orders[i]), total)
					return
				}
				maxOpen[i] = max(maxOpen[i], o.open.Load())
				if ev.Kind == Opt {
					if opted[ev.ID] {
						t.Errorf("site %d: %v Opt-delivered twice", i, ev.ID)
					}
					opted[ev.ID] = true
					continue
				}
				if !opted[ev.ID] {
					t.Errorf("site %d: %v TO-delivered before its Opt delivery", i, ev.ID)
				}
				orders[i] = append(orders[i], ev.ID)
				if int(ev.ID.Origin) == i && i < origins {
					<-tokens[i]
				}
			}
		}()
	}
	for i := range tokens {
		go func() {
			for k := 0; k < perOrigin; k++ {
				tokens[i] <- struct{}{}
				if _, err := group[i].Broadcast(k); err != nil {
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
	case <-time.After(2 * time.Minute):
		t.Fatalf("not all sites TO-delivered %d messages: %s", total, group[0].Dump())
	}
	return orders, maxOpen
}

// Three origins under delay and jitter keep several stages open at every
// site. The definitive order is still one sequence, every message is in it
// once, no site ever has more than window stages open, and nothing is left
// in the live table.
func TestOverlappingStagesThreeOrigins(t *testing.T) {
	const perOrigin, depth = 2000, 8
	h := transport.NewHub(3, transport.WithDelay(200*time.Microsecond),
		transport.WithJitter(200*time.Microsecond), transport.WithSeed(3))
	defer h.Close()
	group, stopAll := startWindowGroup(t, h)
	orders, maxOpen := runOrigins(t, group, 3, perOrigin, depth)
	checkSameOrder(t, orders)
	seen := make(map[MsgID]bool, len(orders[0]))
	for _, id := range orders[0] {
		if seen[id] {
			t.Fatalf("%v TO-delivered twice", id)
		}
		seen[id] = true
	}
	overlapped := false
	for i, n := range maxOpen {
		if n > window {
			t.Errorf("site %d had %d stages open, window %d", i, n, window)
		}
		overlapped = overlapped || n > 1
	}
	if !overlapped {
		t.Errorf("no site was seen with two stages open (%v): the run did not test the window", maxOpen)
	}
	stopAll()
	for i, o := range group {
		if sz := o.SizesStopped(); sz.Live != 0 || sz.Undecided != 0 || sz.PendingTO != 0 {
			t.Errorf("site %d idle, yet holds %+v", i, sz)
		}
		st := o.Stats()
		t.Logf("site %d: %d stages (%d fast), %d reorders, up to %d open", i, st.Stages, st.FastStages, st.Reorders, maxOpen[i])
	}
}

// One origin over zero-delay links: every site receives the messages in
// the origin's order, so no definitive order may ever invert it. With
// stages overlapping that holds because proposals are cumulative (see
// maybePropose); a site that proposed only what its open stages left out
// would have its second list decided before the rest of its first.
func TestNoSelfInflictedReorder(t *testing.T) {
	n := 50_000
	if testing.Short() {
		n /= 10
	}
	h := transport.NewHub(3)
	defer h.Close()
	group, _ := startWindowGroup(t, h)
	orders, maxOpen := runOrigins(t, group, 1, n, 32)
	checkSameOrder(t, orders)
	for i, o := range group {
		if st := o.Stats(); st.Reorders != 0 {
			t.Errorf("site %d: %d reorders of one origin's FIFO stream (%d stages, up to %d open)", i, st.Reorders, st.Stages, maxOpen[i])
		}
	}
}

// proposalsOf reads what the scripted engine (site 0, which owns round 0)
// proposes, off the copy of each MsgPropose it sends site 1.
func proposalsOf(h *transport.Hub) func(t *testing.T, stage uint64, want ...MsgID) {
	in := h.Endpoint(1).Subscribe(consensus.Stream)
	return func(t *testing.T, stage uint64, want ...MsgID) {
		t.Helper()
		for {
			select {
			case env := <-in:
				m, ok := env.Msg.(consensus.MsgPropose)
				if !ok {
					continue // its acks, estimates for later rounds, decision requests
				}
				if got := m.Val.([]MsgID); m.Inst != stage || !slices.Equal(got, want) {
					t.Fatalf("proposed %v for stage %d, want %v for stage %d", got, m.Inst, want, stage)
				}
				return
			case <-time.After(5 * time.Second):
				t.Fatalf("stage %d never proposed", stage)
			}
		}
	}
}

func decide(h *transport.Hub, stage uint64, ids ...MsgID) {
	h.Inject(2, 0, consensus.Stream, consensus.MsgDecide{Inst: stage, Val: ids})
}

// body has site 0 Opt-deliver id.
func body(t *testing.T, o *Optimistic, h *transport.Hub, id MsgID) {
	t.Helper()
	h.Inject(id.Origin, 0, StreamData, DataMsg{ID: id, Payload: "p"})
	expectNext(t, o, Event{Kind: Opt, ID: id})
}

// The window, message by message: every proposal is the whole undecided
// list, the fifth stage waits for a decision, a decision that is a prefix
// of the local proposal leaves the rest for the next one, and a stage is
// graded fast when its decision and the local proposal agree on what
// earlier stages had not decided.
func TestWindowCumulativeProposals(t *testing.T) {
	o, h := scriptedEngine(t)
	proposed := proposalsOf(h)
	a, b, c, d, e := MsgID{1, 1}, MsgID{1, 2}, MsgID{2, 1}, MsgID{1, 3}, MsgID{2, 2}
	body(t, o, h, a)
	proposed(t, 1, a)
	body(t, o, h, b)
	proposed(t, 2, a, b)
	body(t, o, h, c)
	proposed(t, 3, a, b, c)
	body(t, o, h, d)
	proposed(t, 4, a, b, c, d)
	body(t, o, h, e) // window full: not proposed yet

	decide(h, 1, a)
	expectNext(t, o, Event{Kind: TO, ID: a})
	proposed(t, 5, b, c, d, e)
	decide(h, 2, a, b) // a is skipped
	expectNext(t, o, Event{Kind: TO, ID: b})
	decide(h, 3, a, b) // the coordinator had not seen c: nothing new, c stays
	decide(h, 4, a, b, c)
	expectNext(t, o, Event{Kind: TO, ID: c})
	decide(h, 5, b, c, d) // a strict prefix of what was proposed here
	expectNext(t, o, Event{Kind: TO, ID: d})
	proposed(t, 6, e) // no stage was open any more, so e is proposed again
	decide(h, 6, e)
	expectEvents(t, o, Event{Kind: TO, ID: e})

	if st := o.Stats(); st.Stages != 6 || st.FastStages != 3 || st.Reorders != 0 {
		t.Fatalf("6 stages, of which 1, 2 and 6 were decided as proposed here: %+v", st)
	}
	_ = o.Stop()
	if sz := o.SizesStopped(); sz.Live != 0 || sz.Undecided != 0 || o.stage != 7 || o.nextProcess != 7 {
		t.Fatalf("idle at stage 7, yet %+v, stage %d, next to process %d", sz, o.stage, o.nextProcess)
	}
}

// Open proposals that name window messages are a batch: the next message
// does not get a stage beside them, however few they are, and rides in the
// one the next decision opens.
func TestWindowBatchWaitsForDecision(t *testing.T) {
	o, h := scriptedEngine(t)
	proposed := proposalsOf(h)
	a, b, c, d, e, f := MsgID{1, 1}, MsgID{1, 2}, MsgID{1, 3}, MsgID{1, 4}, MsgID{1, 5}, MsgID{1, 6}
	body(t, o, h, a)
	proposed(t, 1, a)
	body(t, o, h, b)
	proposed(t, 2, a, b)
	body(t, o, h, c)
	proposed(t, 3, a, b, c)
	body(t, o, h, d)
	proposed(t, 4, a, b, c, d)
	decide(h, 1, a)
	expectNext(t, o, Event{Kind: TO, ID: a})
	body(t, o, h, e)
	proposed(t, 5, b, c, d, e)
	decide(h, 2, a)
	decide(h, 3, a) // neither orders anything new: stages 4 and 5 are open and name b c d e

	body(t, o, h, f) // two stages open, four messages in them: f waits
	decide(h, 4, a, b)
	expectNext(t, o, Event{Kind: TO, ID: b})
	proposed(t, 6, c, d, e, f) // and not b c d e f, opened before that decision
	decide(h, 5, b, c, d, e)
	expectNext(t, o, Event{Kind: TO, ID: c}, Event{Kind: TO, ID: d}, Event{Kind: TO, ID: e})
	decide(h, 6, c, d, e, f)
	expectEvents(t, o, Event{Kind: TO, ID: f})
}

// Decisions are applied in stage order whatever order they arrive in, and
// a decision of a stage this site never opened moves its stage counter
// past it.
func TestWindowDecisionsOutOfOrderAndUnopened(t *testing.T) {
	o, h := scriptedEngine(t)
	proposed := proposalsOf(h)
	a, b, c, x := MsgID{1, 1}, MsgID{1, 2}, MsgID{1, 3}, MsgID{2, 1}
	body(t, o, h, a)
	proposed(t, 1, a)
	body(t, o, h, b)
	proposed(t, 2, a, b)

	decide(h, 3, x, b) // never opened here, two stages early, body unknown
	decide(h, 2, a, b)
	expectEvents(t, o) // both wait for stage 1
	decide(h, 1, a)
	expectNext(t, o, Event{Kind: TO, ID: a}, Event{Kind: TO, ID: b})
	h.Inject(2, 0, StreamData, DataMsg{ID: x, Payload: "p"})
	expectEvents(t, o, Event{Kind: Opt, ID: x}, Event{Kind: TO, ID: x})

	body(t, o, h, c)
	proposed(t, 4, c)
	if st := o.Stats(); st.Stages != 3 || st.FastStages != 2 {
		t.Fatalf("stages 1 and 2 were decided as proposed, 3 was not proposed: %+v", st)
	}
}

// A joiner is primed from a cut taken while the donor has stages open above
// the one it processes next. It resumes at that stage, and the cumulative
// decisions of the open stages — which name what the cut already holds as
// decided — deliver every message once, at the donor's positions.
func TestJoinAtCutWithStagesOpen(t *testing.T) {
	donor, dh := scriptedEngine(t)
	proposed := proposalsOf(dh)
	a, b, c := MsgID{1, 1}, MsgID{2, 1}, MsgID{1, 2}
	body(t, donor, dh, a)
	proposed(t, 1, a)
	body(t, donor, dh, b)
	proposed(t, 2, a, b)
	body(t, donor, dh, c)
	proposed(t, 3, a, b, c)
	decide(dh, 1, a)
	expectNext(t, donor, Event{Kind: TO, ID: a})

	cut, err := donor.DefinitiveLog(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cut.NextStage != 2 || len(cut.Entries) != 1 || cut.Entries[0].ID != a {
		t.Fatalf("cut with stages 2 and 3 open: next stage %d, entries %v", cut.NextStage, cut.Entries)
	}
	joiner, jh := scriptedEngine(t, WithJoin(JoinState{
		StartStage: cut.NextStage,
		ResumeSeq:  cut.ResumeSeq,
		Backlog:    cut.Entries,
		Delivered:  cut.Delivered,
	}))
	expectNext(t, joiner, Event{Kind: Opt, ID: a}, Event{Kind: TO, ID: a})

	// Both see the rest: the survivors' links replay every body to the
	// joiner, and stages 2 and 3 decide the lists proposed before the cut.
	for _, id := range []MsgID{a, b, c} {
		jh.Inject(id.Origin, 0, StreamData, DataMsg{ID: id, Payload: "p"})
	}
	expectNext(t, joiner, Event{Kind: Opt, ID: b}, Event{Kind: Opt, ID: c})
	for _, h := range []*transport.Hub{dh, jh} {
		decide(h, 3, a, b, c)
		decide(h, 2, a, b)
	}
	expectEvents(t, donor, Event{Kind: TO, ID: b}, Event{Kind: TO, ID: c})
	expectEvents(t, joiner, Event{Kind: TO, ID: b}, Event{Kind: TO, ID: c})

	want, err := donor.DefinitiveLog(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := joiner.DefinitiveLog(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextStage != 4 || want.NextStage != 4 || len(got.Entries) != 3 {
		t.Fatalf("after stage 3: donor at stage %d, joiner at stage %d with %v", want.NextStage, got.NextStage, got.Entries)
	}
	for i, ent := range got.Entries {
		if w := want.Entries[i]; ent.Seq != w.Seq || ent.ID != w.ID {
			t.Fatalf("position %d: joiner has %v at %d, donor %v at %d", i, ent.ID, ent.Seq, w.ID, w.Seq)
		}
	}
}
