package consensus

import (
	"fmt"
	"runtime"
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

// A decided instance's struct, its rounds and their vote slices serve the
// next instance, and nothing of the first may show in the second. At node
// 2, instance k leaves behind all a round can hold: a proposal, the
// round-0 acks of nodes 1 and 2 that decided it, node 2's own ack and
// stamp, and an estimate for round 2, which node 2 coordinates. Instance
// k+1 then runs on the same struct.
func TestRecycledInstanceStartsClean(t *testing.T) {
	const k = 7
	w := newWorld(-1)
	defer w.close()
	e := w.engines[2]
	deliver := func(from transport.NodeID, msg any) {
		e.handleEnvelope(transport.Envelope{From: from, Stream: Stream, Msg: msg})
	}
	sent := func() []any {
		var msgs []any
		for _, p := range w.pending {
			if p.from == 2 {
				msgs = append(msgs, p.msg)
			}
		}
		w.pending = nil
		return msgs
	}
	decidedValue := func(inst uint64) any {
		if d := e.decided(inst); d != nil {
			return d.val
		}
		return nil
	}

	e.handlePropose(k, "k-own")
	deliver(0, MsgEstimate{Inst: k, Round: 2, Est: "k-estimate", TS: 1})
	deliver(0, MsgPropose{Inst: k, Round: 0, Val: "k-proposal"})
	deliver(1, MsgAck{Inst: k, Round: 0})
	if got := decidedValue(k); got != "k-proposal" {
		t.Fatalf("instance %d decided %v, want k-proposal", k, got)
	}
	if len(e.free) != 1 || len(e.instances) != 0 || len(e.active) != 0 {
		t.Fatalf("after the decision: %d free structs, %d instances, %d active; want 1, 0, 0",
			len(e.free), len(e.instances), len(e.active))
	}
	recycled := e.free[0]
	sent()

	// Proposing sends the estimate of a fresh instance — its own value,
	// never adopted — and acks nothing: k+1 has no proposal yet.
	e.handlePropose(k+1, "k1-own")
	if e.instances[k+1] != recycled {
		t.Fatal("instance k+1 did not take the struct of instance k")
	}
	want := MsgEstimate{Inst: k + 1, Round: 0, Est: "k1-own"}
	if msgs := sent(); len(msgs) != 1 || msgs[0] != want {
		t.Fatalf("on Propose node 2 sent %v, want only %v", msgs, want)
	}
	// One estimate for round 2 is no majority: nothing is proposed.
	deliver(1, MsgEstimate{Inst: k + 1, Round: 2, Est: "k1-estimate"})
	if msgs := sent(); len(msgs) != 0 {
		t.Fatalf("one estimate for round 2 made its coordinator send %v", msgs)
	}
	// The round-0 proposal is acked, and one ack does not decide.
	deliver(0, MsgPropose{Inst: k + 1, Round: 0, Val: "k1-proposal"})
	msgs := sent()
	if len(msgs) != 2 || msgs[0] != (MsgAck{Inst: k + 1}) || msgs[1] != (MsgAck{Inst: k + 1}) {
		t.Fatalf("on the proposal node 2 sent %v, want its ack to nodes 0 and 1", msgs)
	}
	if got := decidedValue(k + 1); got != nil {
		t.Fatalf("instance %d decided %v on one ack", k+1, got)
	}
	deliver(1, MsgAck{Inst: k + 1, Round: 0})
	if got := decidedValue(k + 1); got != "k1-proposal" {
		t.Fatalf("instance %d decided %v on two acks, want k1-proposal", k+1, got)
	}
}

// The sink is handed copies: a ring slot is overwritten horizon decisions
// later, a Decision the sink was given never is.
func TestSinkDecisionsOutliveTheRing(t *testing.T) {
	const horizon, instances = 4, 64
	h := transport.NewHub(1)
	defer h.Close()
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: time.Hour})
	e.SetHorizon(horizon)
	e.Start()
	defer e.Stop()
	kept := make(chan *Decision, instances)
	e.SetSink(func(d *Decision) { kept <- d })
	for inst := uint64(1); inst <= instances; inst++ {
		if err := e.Propose(inst, fmt.Sprint("v", inst)); err != nil {
			t.Fatal(err)
		}
	}
	var got []*Decision
	for len(got) < instances {
		select {
		case d := <-kept:
			got = append(got, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("the sink got %d of %d decisions", len(got), instances)
		}
	}
	e.Stop()
	for i, d := range got {
		inst := uint64(i + 1)
		if d.Instance != inst || d.Value != fmt.Sprint("v", inst) {
			t.Errorf("decision %d reads %+v", inst, *d)
		}
	}
}

// TestDecisionWindowBudget holds the window to numbers: what an instance
// allocates at three engines, the live heap once horizon decisions are
// kept, and that it stays there over the next horizon. Measured on go1.24
// linux/amd64: 14.0 allocations an instance, nearly all of them the
// messages, and 2.38 MiB an engine — 26.0 and 11.6 MiB while a decision
// kept its instance struct in a map. The ceilings are the measurements
// plus a quarter.
func TestDecisionWindowBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("135k instances at three engines")
	}
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	const (
		maxAllocs = 17.5
		maxHeapMB = 3
		warmup    = 1024
		fill      = decisionHorizon + decisionHorizon/16
	)
	live := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	base := live()
	h := transport.NewHub(3)
	defer h.Close()
	engines := make([]*Engine, 3)
	for i := range engines {
		engines[i] = New(Config{Endpoint: h.Endpoint(transport.NodeID(i)), RoundTimeout: time.Second})
		engines[i].Start()
		defer engines[i].Stop()
	}
	next := uint64(1)
	run := func(n int) {
		for end := next + uint64(n); next < end; next++ {
			for _, e := range engines {
				if err := e.Propose(next, next); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range engines {
				for d := range e.Decisions() {
					if d.Instance == next {
						break
					}
				}
			}
		}
	}

	run(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(fill - warmup)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(fill-warmup)
	full := (live() - base) / 3
	run(decisionHorizon)
	later := (live() - base) / 3
	t.Logf("%.1f allocations an instance; live heap an engine %.2f MiB with the window full, %.2f MiB %d instances later",
		allocs, full, later, decisionHorizon)
	if allocs > maxAllocs {
		t.Errorf("an instance allocates %.1f objects, budget %.1f", allocs, maxAllocs)
	}
	if full > maxHeapMB {
		t.Errorf("an engine holds %.2f MiB with the window full, budget %d", full, maxHeapMB)
	}
	if later > 1.05*full {
		t.Errorf("the live heap grew from %.2f to %.2f MiB an engine over %d instances", full, later, decisionHorizon)
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
