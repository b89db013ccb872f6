package abcast

import (
	"fmt"
	"testing"
	"time"

	"otpdb/internal/consensus"
	"otpdb/internal/transport"
)

// siteEvents drains one site's deliveries until it has seen wantTO
// TO events, returning the full event sequence.
func siteEvents(t *testing.T, b Broadcaster, wantTO int, timeout time.Duration) []Event {
	t.Helper()
	var events []Event
	seenTO := 0
	deadline := time.After(timeout)
	for seenTO < wantTO {
		select {
		case ev, ok := <-b.Deliveries():
			if !ok {
				t.Fatalf("deliveries closed after %d TO events (want %d)", seenTO, wantTO)
			}
			events = append(events, ev)
			if ev.Kind == TO {
				seenTO++
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d TO events", seenTO, wantTO)
		}
	}
	return events
}

func toOrder(events []Event) []MsgID {
	var out []MsgID
	for _, ev := range events {
		if ev.Kind == TO {
			out = append(out, ev.ID)
		}
	}
	return out
}

func optOrder(events []Event) []MsgID {
	var out []MsgID
	for _, ev := range events {
		if ev.Kind == Opt {
			out = append(out, ev.ID)
		}
	}
	return out
}

// checkLocalOrder verifies Opt(m) precedes TO(m) for every m.
func checkLocalOrder(t *testing.T, events []Event) {
	t.Helper()
	opted := make(map[MsgID]bool)
	for _, ev := range events {
		switch ev.Kind {
		case Opt:
			if opted[ev.ID] {
				t.Fatalf("%v Opt-delivered twice", ev.ID)
			}
			opted[ev.ID] = true
		case TO:
			if !opted[ev.ID] {
				t.Fatalf("%v TO-delivered before Opt-delivery (Local Order)", ev.ID)
			}
		}
	}
}

func checkSameOrder(t *testing.T, perSite [][]MsgID) {
	t.Helper()
	for s := 1; s < len(perSite); s++ {
		if len(perSite[s]) != len(perSite[0]) {
			t.Fatalf("site %d TO-delivered %d messages, site 0 %d",
				s, len(perSite[s]), len(perSite[0]))
		}
		for i := range perSite[s] {
			if perSite[s][i] != perSite[0][i] {
				t.Fatalf("Global Order violated at position %d: site %d has %v, site 0 has %v",
					i, s, perSite[s][i], perSite[0][i])
			}
		}
	}
}

func startOptimisticGroup(t *testing.T, h *transport.Hub, n int) []*Optimistic {
	t.Helper()
	return startOptimisticGroupOn(t, h.Endpoints()[:n])
}

// startOptimisticGroupOn is startOptimisticGroup over endpoints the test
// may have wrapped, with the engine options it wants.
func startOptimisticGroupOn(t *testing.T, eps []transport.Endpoint, opts ...Option) []*Optimistic {
	t.Helper()
	group := make([]*Optimistic, len(eps))
	for i, ep := range eps {
		cons := consensus.New(consensus.Config{
			Endpoint:     ep,
			RoundTimeout: 50 * time.Millisecond,
		})
		cons.Start()
		o := NewOptimistic(ep, cons, opts...)
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		group[i] = o
		t.Cleanup(func() {
			_ = o.Stop()
			cons.Stop()
		})
	}
	return group
}

func TestOptimisticDeliversEverywhereInSameOrder(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	group := startOptimisticGroup(t, h, 3)

	const perSite = 10
	for i := 0; i < perSite; i++ {
		for s, b := range group {
			if _, err := b.Broadcast(fmt.Sprintf("s%d-m%d", s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := perSite * len(group)
	orders := make([][]MsgID, len(group))
	for s, b := range group {
		events := siteEvents(t, b, total, 20*time.Second)
		checkLocalOrder(t, events)
		orders[s] = toOrder(events)
	}
	checkSameOrder(t, orders)
}

func TestOptimisticGlobalOrderUnderJitter(t *testing.T) {
	h := transport.NewHub(3, transport.WithJitter(2*time.Millisecond), transport.WithSeed(17))
	defer h.Close()
	group := startOptimisticGroup(t, h, 3)

	const perSite = 15
	for i := 0; i < perSite; i++ {
		for _, b := range group {
			if _, err := b.Broadcast(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := perSite * len(group)
	orders := make([][]MsgID, len(group))
	for s, b := range group {
		events := siteEvents(t, b, total, 30*time.Second)
		checkLocalOrder(t, events)
		orders[s] = toOrder(events)
	}
	checkSameOrder(t, orders)
}

func TestOptimisticOptReflectsReceptionOrder(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	group := startOptimisticGroup(t, h, 2)

	id1, err := group[0].Broadcast("a")
	if err != nil {
		t.Fatal(err)
	}
	events := siteEvents(t, group[0], 1, 10*time.Second)
	opts := optOrder(events)
	if len(opts) != 1 || opts[0] != id1 {
		t.Fatalf("opt order %v, want [%v]", opts, id1)
	}
	// Payload rides on the Opt event only.
	for _, ev := range events {
		if ev.Kind == Opt && ev.Payload != "a" {
			t.Fatalf("opt payload = %v", ev.Payload)
		}
		if ev.Kind == TO && ev.Payload != nil {
			t.Fatalf("TO event carries payload %v", ev.Payload)
		}
	}
}

func TestOptimisticFastPathCountsStages(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	group := startOptimisticGroup(t, h, 2)
	for i := 0; i < 5; i++ {
		if _, err := group[0].Broadcast(i); err != nil {
			t.Fatal(err)
		}
		// Pace the sends so tentative orders trivially agree.
		//otplint:allow testpoll fixed-rate pacing of the workload, not a wait for a condition
		time.Sleep(5 * time.Millisecond)
	}
	siteEvents(t, group[0], 5, 10*time.Second)
	st := group[0].Stats()
	if st.Stages == 0 {
		t.Fatal("no stages decided")
	}
	if st.FastStages == 0 {
		t.Fatal("no fast stages despite spontaneous order")
	}
	if st.Broadcasts != 5 || st.TODelivered != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOptimisticStopIsClean(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	group := startOptimisticGroup(t, h, 2)
	if _, err := group[0].Broadcast("x"); err != nil {
		t.Fatal(err)
	}
	siteEvents(t, group[0], 1, 10*time.Second)
	if err := group[0].Stop(); err != nil {
		t.Fatal(err)
	}
	if err := group[0].Stop(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := group[0].Broadcast("y"); err == nil {
		t.Fatal("broadcast on stopped engine succeeded")
	}
}

func TestEventKindString(t *testing.T) {
	if Opt.String() != "Opt" || TO.String() != "TO" {
		t.Fatal("EventKind.String broken")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Fatal("unknown kind formatting broken")
	}
}
