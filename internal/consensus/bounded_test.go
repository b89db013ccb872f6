package consensus

import (
	"testing"
	"time"

	"otpdb/internal/metrics"
	"otpdb/internal/transport"
)

// TestBoundedState: an engine holds the undecided instances and the last
// horizon decisions, nothing below; what reaches it about an instance
// below the horizon is counted and leaves no state behind.
func TestBoundedState(t *testing.T) {
	const (
		horizon   = 256
		instances = 5000
	)
	// Node 3 is the test, as a peer that fell behind: it runs no engine and
	// is no member, so all it is sent is the answers to what it asks.
	const laggard = 3
	view := &stubView{members: []transport.NodeID{0, 1, 2}}
	h := transport.NewHub(4)
	defer h.Close()
	reg := metrics.NewRegistry()
	engines := make([]*Engine, 3)
	for i := range engines {
		cfg := Config{Endpoint: h.Endpoint(transport.NodeID(i)), View: view, RoundTimeout: time.Second}
		if i == 0 {
			cfg.Metrics = reg.Scope()
		}
		engines[i] = New(cfg)
		engines[i].SetHorizon(horizon)
		engines[i].Start()
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			for _, e := range engines {
				e.Stop()
			}
		}
	}
	defer stop()

	// One instance after the other, as the ordering layer runs its stages.
	for inst := uint64(1); inst <= instances; inst++ {
		for _, e := range engines {
			if err := e.Propose(inst, inst); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range engines {
			if got := collectDecision(t, e, inst, 10*time.Second); got != inst {
				t.Fatalf("instance %d decided %v", inst, got)
			}
		}
	}

	// A peer that is further behind than the horizon: its round traffic and
	// its catch-up request are dropped, a request within the horizon is
	// served.
	below := counterValue(t, reg, "consensus_below_horizon_total")
	replies := h.Endpoint(laggard).Subscribe(Stream)
	h.Inject(laggard, 0, Stream, MsgEstimate{Inst: 3, Round: 1, Est: "late"})
	h.Inject(laggard, 0, Stream, MsgAck{Inst: 4, Round: 0})
	h.Inject(laggard, 0, Stream, MsgDecideReq{From: 5})
	h.Inject(laggard, 0, Stream, MsgDecideReq{From: instances - 1})
	for want := uint64(instances - 1); want <= instances; want++ {
		select {
		case env := <-replies:
			if d, ok := env.Msg.(MsgDecide); !ok || d.Inst != want {
				t.Fatalf("reply %v, want the decision of %d", env.Msg, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no decision of %d in answer to the request within the horizon", want)
		}
	}
	if got := counterValue(t, reg, "consensus_below_horizon_total") - below; got != 3 {
		t.Fatalf("%v messages counted below the horizon, want 3", got)
	}

	stop()
	for i, e := range engines {
		sz := e.SizesStopped()
		t.Logf("engine %d: %+v", i, sz)
		if sz.Instances > horizon || sz.Active != 0 {
			t.Errorf("engine %d holds %d instances (%d active), horizon %d", i, sz.Instances, sz.Active, horizon)
		}
		if sz.Top != instances || sz.Floor != instances-horizon+1 {
			t.Errorf("engine %d: window [%d, %d], want [%d, %d]", i, sz.Floor, sz.Top, instances-horizon+1, instances)
		}
	}
}

// A site that joins at a late instance decides it first of all: the window
// jumps there without walking the numbers in between.
func TestHorizonJump(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: time.Hour})
	e.SetHorizon(8)
	e.Start()
	defer e.Stop()
	h.Inject(1, 0, Stream, MsgDecide{Inst: 2, Val: "early"})
	h.Inject(1, 0, Stream, MsgDecide{Inst: 1 << 40, Val: "late"})
	h.Inject(1, 0, Stream, MsgDecide{Inst: 1<<40 - 3, Val: "just before"})
	for _, want := range []uint64{2, 1 << 40, 1<<40 - 3} {
		if d := <-e.Decisions(); d.Instance != want {
			t.Fatalf("decision of %d, want %d", d.Instance, want)
		}
	}
	e.Stop()
	if sz := e.SizesStopped(); sz.Instances != 2 || sz.Floor != 1<<40-7 {
		t.Fatalf("after the jump: %+v", sz)
	}
}

func counterValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, sample := range reg.Snapshot() {
		if sample.Name == name {
			return sample.Value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}
