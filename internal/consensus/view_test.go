package consensus

import (
	"testing"
	"time"

	"otpdb/internal/member"
	"otpdb/internal/transport"
)

// trackedEngines starts n engines sharing per-node member.Trackers
// primed with the same configuration.
func trackedEngines(t *testing.T, h *transport.Hub, cfg member.Config) ([]*Engine, []*member.Tracker) {
	t.Helper()
	n := len(cfg.Members)
	engines := make([]*Engine, n)
	trackers := make([]*member.Tracker, n)
	for i := 0; i < n; i++ {
		trackers[i] = member.NewTracker(cfg)
		engines[i] = New(Config{
			Endpoint:     h.Endpoint(transport.NodeID(i)),
			RoundTimeout: 50 * time.Millisecond,
			View:         trackers[i],
		})
		engines[i].Start()
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
	})
	return engines, trackers
}

// TestViewShrinkDecidesWithNewQuorum: after every live member applies
// the shrunk configuration, instances decide among the survivors even
// though the old configuration's quorum could never be met (two of four
// nodes are dead).
func TestViewShrinkDecidesWithNewQuorum(t *testing.T) {
	h := transport.NewHub(4)
	defer h.Close()
	cfg := member.Bootstrap(map[transport.NodeID]string{0: "", 1: "", 2: "", 3: ""})
	engines, trackers := trackedEngines(t, h, cfg)

	// Nodes 2 and 3 die; the old epoch needs 3 of 4 and cannot decide.
	h.Crash(2)
	h.Crash(3)
	next, err := cfg.WithRemove(3)
	if err != nil {
		t.Fatal(err)
	}
	next2, err := next.WithRemove(2)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 3: members {0, 1}, quorum 2 — both survivors must apply it.
	trackers[0].Apply(next)
	trackers[0].Apply(next2)
	trackers[1].Apply(next)
	trackers[1].Apply(next2)

	for _, i := range []int{0, 1} {
		if err := engines[i].Propose(1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 1} {
		if got := collectDecision(t, engines[i], 1, 10*time.Second); got != "v" {
			t.Fatalf("engine %d decided %v, want v", i, got)
		}
	}
}

// TestViewEpochFilterDropsCrossEpochQuorum: a process still in the old
// epoch contributes nothing to a new-epoch quorum. With only one member
// advanced to the new epoch of a two-member group, no decision can form;
// once the laggard catches up, the instance completes.
func TestViewEpochFilterDropsCrossEpochQuorum(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	cfg := member.Bootstrap(map[transport.NodeID]string{0: "", 1: "", 2: ""})
	engines, trackers := trackedEngines(t, h, cfg)

	next, err := cfg.WithRemove(2)
	if err != nil {
		t.Fatal(err)
	}
	h.Crash(2)
	trackers[0].Apply(next) // node 1 lags in epoch 1

	if err := engines[0].Propose(1, "v"); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-engines[0].Decisions():
		t.Fatalf("decision %v formed across epochs", d)
	case <-time.After(400 * time.Millisecond):
	}

	trackers[1].Apply(next)
	if err := engines[1].Propose(1, "v"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if got := collectDecision(t, engines[i], 1, 10*time.Second); got != "v" {
			t.Fatalf("engine %d decided %v, want v", i, got)
		}
	}
}

// TestViewNonContiguousMembers: coordinator rotation works over member
// identifier sets with holes (site 1 removed from {0,1,2}).
func TestViewNonContiguousMembers(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	cfg := member.Bootstrap(map[transport.NodeID]string{0: "", 1: "", 2: ""})
	engines, trackers := trackedEngines(t, h, cfg)

	next, err := cfg.WithRemove(1)
	if err != nil {
		t.Fatal(err)
	}
	h.Crash(1)
	trackers[0].Apply(next)
	trackers[2].Apply(next)

	for _, i := range []int{0, 2} {
		if err := engines[i].Propose(5, "w"); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2} {
		if got := collectDecision(t, engines[i], 5, 10*time.Second); got != "w" {
			t.Fatalf("engine %d decided %v, want w", i, got)
		}
	}
}

// stubView is a view the test moves by hand.
type stubView struct {
	epoch   uint64
	members []transport.NodeID
}

func (v *stubView) Snapshot() (uint64, []transport.NodeID) { return v.epoch, v.members }

// TestAcksFromAnotherEpochNeverCompleteAQuorum: every process counts acks
// for itself now, so every process — the coordinator as much as a
// bystander — must refuse an ack stamped with another epoch, and must
// forget the votes it holds when its own epoch moves.
func TestAcksFromAnotherEpochNeverCompleteAQuorum(t *testing.T) {
	w := buildWorld(-1, func(transport.NodeID) (*stubView, uint64) {
		return &stubView{epoch: 5, members: []transport.NodeID{0, 1, 2}}, 0
	})
	defer w.close()
	views := w.views
	deliver := func(to, from transport.NodeID, msg any) {
		w.engines[to].handleEnvelope(transport.Envelope{From: from, Stream: Stream, Msg: msg})
	}
	undecided := func(when string) {
		t.Helper()
		for id, e := range w.engines {
			if v := e.decidedValue(); v != nil {
				t.Fatalf("node %d decided %v %s", id, v, when)
			}
		}
	}

	// Only the coordinator takes part: afterwards every node holds the
	// proposal and the coordinator's ack, one short of a majority.
	w.add(0, proposeEvent{val: "a"})
	for len(w.pending) > 0 {
		w.step(0)
	}
	undecided("on the coordinator's ack alone")

	foreign := MsgAck{Inst: exploreInst, Round: 0, Epoch: 6}
	for to := range w.engines {
		deliver(transport.NodeID(to), 2, foreign)
	}
	undecided("counting an epoch-6 ack in epoch 5")

	// The coordinator's own epoch moves: what it held was voted under the
	// old configuration, and one epoch-6 ack is no majority.
	views[0].epoch = 6
	deliver(0, 2, foreign)
	undecided("mixing an epoch-5 ack with an epoch-6 ack")

	// The second ack of the right epoch decides.
	for _, to := range []transport.NodeID{1, 2} {
		deliver(to, 1, MsgAck{Inst: exploreInst, Round: 0, Epoch: 5})
		if got := w.engines[to].decidedValue(); got != "a" {
			t.Fatalf("node %d decided %v on two epoch-5 acks, want a", to, got)
		}
	}
}
