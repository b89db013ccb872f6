package abcast

import (
	"testing"
	"time"

	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// checkAdjacentPairs verifies what conservative delivery promises the layer
// above: every Opt event is immediately followed by the TO event of the
// same message, and nothing else is ever emitted.
func checkAdjacentPairs(t *testing.T, events []Event) {
	t.Helper()
	if len(events)%2 != 0 {
		t.Fatalf("%d events, want Opt/TO pairs", len(events))
	}
	for i := 0; i < len(events); i += 2 {
		opt, to := events[i], events[i+1]
		if opt.Kind != Opt || to.Kind != TO || opt.ID != to.ID {
			t.Fatalf("events %d,%d = %+v %+v; want adjacent Opt/TO pair", i, i+1, opt, to)
		}
		if opt.Payload == nil || to.Payload != nil {
			t.Fatalf("pair %v: Opt payload %v, TO payload %v; the body rides on Opt only", opt.ID, opt.Payload, to.Payload)
		}
	}
}

// Conservative delivery is the same broadcast: every site TO-delivers
// every message in the same order under jitter that scrambles reception
// order — and the layer above never sees that scramble: each Opt is its
// message's own TO's neighbour, as many Opt as TO events, no reorders.
func TestConservativeDeliversEverywhereInSameOrder(t *testing.T) {
	h := transport.NewHub(3, transport.WithJitter(2*time.Millisecond), transport.WithSeed(17))
	defer h.Close()
	group := startOptimisticGroupOn(t, h.Endpoints(), WithConservativeDelivery())

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
		checkAdjacentPairs(t, events)
		orders[s] = toOrder(events)
		st := b.Stats()
		if st.OptDelivered != uint64(total) || st.TODelivered != uint64(total) || st.Reorders != 0 {
			t.Fatalf("site %d stats = %+v, want %d Opt, %d TO, 0 reorders", s, st, total, total)
		}
	}
	checkSameOrder(t, orders)
}

// A decision that overtakes its body releases nothing — no Opt, since
// there is no body to carry, and no TO, since Opt must precede it — until
// the body arrives; then the pairs come out in definitive order.
func TestConservativeDecisionBeforeBodyReleasesNothing(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	lag := startLaggingEndpoint(t, h.Endpoint(2))
	group := startOptimisticGroupOn(t, []transport.Endpoint{h.Endpoint(0), h.Endpoint(1), lag},
		WithConservativeDelivery())

	const msgs = 10
	for i := 0; i < msgs; i++ {
		if _, err := group[0].Broadcast(i); err != nil {
			t.Fatal(err)
		}
		checkAdjacentPairs(t, siteEvents(t, group[0], 1, 5*time.Second))
	}
	// Site 2 has every decision and not one body.
	testutil.Eventually(t, 5*time.Second, "site 2 to process every stage", func() bool {
		return group[2].Stats().Stages >= msgs
	})
	if st := group[2].Stats(); st.OptDelivered != 0 || st.TODelivered != 0 {
		t.Fatalf("site 2 delivered without bodies: %+v", st)
	}
	select {
	case ev := <-group[2].Deliveries():
		t.Fatalf("site 2 emitted %+v before any body arrived", ev)
	default:
	}

	close(lag.release)
	events := siteEvents(t, group[2], msgs, 5*time.Second)
	checkAdjacentPairs(t, events)
	for i, id := range toOrder(events) {
		if want := (MsgID{Origin: 0, Seq: uint64(i + 1)}); id != want {
			t.Fatalf("site 2 TO position %d: %v, want %v", i, id, want)
		}
	}
}
