package consensus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"otpdb/internal/fd"
	"otpdb/internal/metrics"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// collectDecision waits for the decision of a given instance on one engine.
func collectDecision(t *testing.T, e *Engine, inst uint64, timeout time.Duration) any {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case d, ok := <-e.Decisions():
			if !ok {
				t.Fatal("decisions channel closed")
			}
			if d.Instance == inst {
				return d.Value
			}
		case <-deadline:
			t.Fatalf("engine %v: no decision for instance %d within %v", e, inst, timeout)
		}
	}
}

func startEngines(t *testing.T, h *transport.Hub, n int, susp fd.Suspector) []*Engine {
	t.Helper()
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		engines[i] = New(Config{
			Endpoint:     h.Endpoint(transport.NodeID(i)),
			Suspector:    susp,
			RoundTimeout: 50 * time.Millisecond,
		})
		engines[i].Start()
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
	})
	return engines
}

func TestAgreementAndValiditySameProposal(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	engines := startEngines(t, h, 3, nil)
	for _, e := range engines {
		if err := e.Propose(1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines {
		if got := collectDecision(t, e, 1, 5*time.Second); got != "v" {
			t.Fatalf("decided %v, want v", got)
		}
	}
}

func TestAgreementDifferentProposals(t *testing.T) {
	h := transport.NewHub(5)
	defer h.Close()
	engines := startEngines(t, h, 5, nil)
	proposed := make(map[string]bool)
	for i, e := range engines {
		v := fmt.Sprintf("val-%d", i)
		proposed[v] = true
		if err := e.Propose(7, v); err != nil {
			t.Fatal(err)
		}
	}
	first := collectDecision(t, engines[0], 7, 5*time.Second)
	s, ok := first.(string)
	if !ok || !proposed[s] {
		t.Fatalf("decision %v was never proposed (validity)", first)
	}
	for _, e := range engines[1:] {
		if got := collectDecision(t, e, 7, 5*time.Second); got != first {
			t.Fatalf("disagreement: %v vs %v", got, first)
		}
	}
}

func TestTerminationWithCrashedCoordinator(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	// Node 0 coordinates round 0; crash it before anything happens.
	h.Crash(0)
	susp := fd.StaticSuspector{0: true}
	engines := make([]*Engine, 3)
	for i := 1; i < 3; i++ {
		engines[i] = New(Config{
			Endpoint:     h.Endpoint(transport.NodeID(i)),
			Suspector:    susp,
			RoundTimeout: 50 * time.Millisecond,
		})
		engines[i].Start()
		defer engines[i].Stop()
	}
	for i := 1; i < 3; i++ {
		if err := engines[i].Propose(1, i); err != nil {
			t.Fatal(err)
		}
	}
	got1 := collectDecision(t, engines[1], 1, 5*time.Second)
	got2 := collectDecision(t, engines[2], 1, 5*time.Second)
	if got1 != got2 {
		t.Fatalf("disagreement after coordinator crash: %v vs %v", got1, got2)
	}
}

func TestTerminationWithCrashedParticipantMinority(t *testing.T) {
	h := transport.NewHub(5)
	defer h.Close()
	h.Crash(3)
	h.Crash(4)
	susp := fd.StaticSuspector{3: true, 4: true}
	engines := make([]*Engine, 3)
	for i := 0; i < 3; i++ {
		engines[i] = New(Config{
			Endpoint:     h.Endpoint(transport.NodeID(i)),
			Suspector:    susp,
			RoundTimeout: 50 * time.Millisecond,
		})
		engines[i].Start()
		defer engines[i].Stop()
	}
	for _, e := range engines {
		if err := e.Propose(3, "alive"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines {
		if got := collectDecision(t, e, 3, 5*time.Second); got != "alive" {
			t.Fatalf("decided %v", got)
		}
	}
}

// A node can coordinate an instance it never locally proposed (node 0
// coordinates round 0 of every instance). The decision must then be the
// value it proposed from the gathered estimates — never its own (absent)
// estimate. Regression test for a wedge where DECIDE(nil) was broadcast.
func TestDecisionWithNonParticipatingCoordinator(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	engines := startEngines(t, h, 3, nil)
	// Engines 1 and 2 propose; engine 0 (round-0 coordinator) does not.
	if err := engines[1].Propose(1, "fromN1"); err != nil {
		t.Fatal(err)
	}
	if err := engines[2].Propose(1, "fromN2"); err != nil {
		t.Fatal(err)
	}
	v1 := collectDecision(t, engines[1], 1, 5*time.Second)
	v2 := collectDecision(t, engines[2], 1, 5*time.Second)
	if v1 == nil || v1 != v2 {
		t.Fatalf("decisions %v / %v; want equal non-nil proposed value", v1, v2)
	}
	if v1 != "fromN1" && v1 != "fromN2" {
		t.Fatalf("decision %v was never proposed (validity)", v1)
	}
}

func TestManyInstancesConcurrently(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	engines := startEngines(t, h, 3, nil)
	const instances = 20
	for inst := uint64(0); inst < instances; inst++ {
		for i, e := range engines {
			if err := e.Propose(inst, fmt.Sprintf("i%d-n%d", inst, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Collect all decisions per engine and compare.
	decided := make([]map[uint64]any, len(engines))
	for i, e := range engines {
		decided[i] = make(map[uint64]any, instances)
		deadline := time.After(10 * time.Second)
		for len(decided[i]) < instances {
			select {
			case d := <-e.Decisions():
				decided[i][d.Instance] = d.Value
			case <-deadline:
				t.Fatalf("engine %d decided only %d/%d", i, len(decided[i]), instances)
			}
		}
	}
	for inst := uint64(0); inst < instances; inst++ {
		v := decided[0][inst]
		for i := 1; i < len(engines); i++ {
			if decided[i][inst] != v {
				t.Fatalf("instance %d: %v vs %v", inst, decided[i][inst], v)
			}
		}
	}
}

func TestDecisionAnnouncedExactlyOnce(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	engines := startEngines(t, h, 3, nil)
	for _, e := range engines {
		if err := e.Propose(1, "x"); err != nil {
			t.Fatal(err)
		}
	}
	collectDecision(t, engines[0], 1, 5*time.Second)
	select {
	case d := <-engines[0].Decisions():
		t.Fatalf("duplicate decision announced: %+v", d)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestProposeTwiceIsNoop(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	engines := startEngines(t, h, 3, nil)
	for _, e := range engines {
		if err := e.Propose(1, "first"); err != nil {
			t.Fatal(err)
		}
	}
	if err := engines[0].Propose(1, "second"); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		if got := collectDecision(t, e, 1, 5*time.Second); got != "first" {
			t.Fatalf("decided %v, want first", got)
		}
	}
}

func TestStopRejectsPropose(t *testing.T) {
	h := transport.NewHub(1)
	defer h.Close()
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: 20 * time.Millisecond})
	e.Start()
	e.Stop()
	if err := e.Propose(1, "x"); err != ErrStopped {
		t.Fatalf("Propose after stop = %v, want ErrStopped", err)
	}
	e.Stop() // idempotent
}

func TestSingleNodeDecidesAlone(t *testing.T) {
	h := transport.NewHub(1)
	defer h.Close()
	e := New(Config{Endpoint: h.Endpoint(0), RoundTimeout: 20 * time.Millisecond})
	e.Start()
	defer e.Stop()
	if err := e.Propose(1, 99); err != nil {
		t.Fatal(err)
	}
	if got := collectDecision(t, e, 1, 5*time.Second); got != 99 {
		t.Fatalf("decided %v, want 99", got)
	}
}

// Round timeouts far below the message delay force multi-round
// instances on every decision — the regime that exposes locking bugs in
// the coordinator's estimate selection (a round-0 adoption must dominate
// initial estimates, see ack).
func TestAgreementUnderConstantRoundRotation(t *testing.T) {
	h := transport.NewHub(3, transport.WithDelay(4*time.Millisecond),
		transport.WithJitter(8*time.Millisecond), transport.WithSeed(23))
	defer h.Close()
	engines := make([]*Engine, 3)
	for i := 0; i < 3; i++ {
		engines[i] = New(Config{
			Endpoint:     h.Endpoint(transport.NodeID(i)),
			RoundTimeout: 3 * time.Millisecond, // below one network delay
		})
		engines[i].Start()
		defer engines[i].Stop()
	}
	const instances = 30
	for inst := uint64(0); inst < instances; inst++ {
		for i, e := range engines {
			if err := e.Propose(inst, fmt.Sprintf("i%d-n%d", inst, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	decided := make([]map[uint64]any, len(engines))
	for i, e := range engines {
		decided[i] = make(map[uint64]any, instances)
		deadline := time.After(30 * time.Second)
		for len(decided[i]) < instances {
			select {
			case d := <-e.Decisions():
				decided[i][d.Instance] = d.Value
			case <-deadline:
				t.Fatalf("engine %d decided only %d/%d", i, len(decided[i]), instances)
			}
		}
	}
	for inst := uint64(0); inst < instances; inst++ {
		if decided[0][inst] != decided[1][inst] || decided[1][inst] != decided[2][inst] {
			t.Fatalf("SAFETY: instance %d decided %v / %v / %v",
				inst, decided[0][inst], decided[1][inst], decided[2][inst])
		}
	}
}

func TestAgreementUnderMessageJitter(t *testing.T) {
	h := transport.NewHub(3, transport.WithJitter(3*time.Millisecond), transport.WithSeed(9))
	defer h.Close()
	engines := startEngines(t, h, 3, nil)
	const instances = 10
	for inst := uint64(0); inst < instances; inst++ {
		for i, e := range engines {
			if err := e.Propose(inst, int(inst)*10+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	decided := make([]map[uint64]any, len(engines))
	for i, e := range engines {
		decided[i] = make(map[uint64]any, instances)
		deadline := time.After(15 * time.Second)
		for len(decided[i]) < instances {
			select {
			case d := <-e.Decisions():
				decided[i][d.Instance] = d.Value
			case <-deadline:
				t.Fatalf("engine %d decided only %d/%d", i, len(decided[i]), instances)
			}
		}
	}
	for inst := uint64(0); inst < instances; inst++ {
		if decided[0][inst] != decided[1][inst] || decided[1][inst] != decided[2][inst] {
			t.Fatalf("instance %d: %v %v %v",
				inst, decided[0][inst], decided[1][inst], decided[2][inst])
		}
	}
}

// countingEndpoint counts what an engine hands to the transport, by
// message type, and the messages of any round after the first.
type countingEndpoint struct {
	transport.Endpoint
	mu     sync.Mutex
	byType map[string]int
	later  int
}

func (c *countingEndpoint) Send(to transport.NodeID, stream string, msg any) error {
	c.count(msg, 1)
	return c.Endpoint.Send(to, stream, msg)
}

func (c *countingEndpoint) Broadcast(stream string, msg any) error {
	c.count(msg, c.N())
	return c.Endpoint.Broadcast(stream, msg)
}

func (c *countingEndpoint) count(msg any, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byType == nil {
		c.byType = make(map[string]int)
	}
	c.byType[fmt.Sprintf("%T", msg)] += n
	round := 0
	switch m := msg.(type) {
	case MsgEstimate:
		round = m.Round
	case MsgPropose:
		round = m.Round
	case MsgAck:
		round = m.Round
	}
	if round > 0 {
		c.later += n
	}
}

func (c *countingEndpoint) sent(msgType string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byType[msgType]
}

func countedEngines(t *testing.T, h *transport.Hub, n int, reg *metrics.Registry) ([]*Engine, []*countingEndpoint) {
	t.Helper()
	engines := make([]*Engine, n)
	eps := make([]*countingEndpoint, n)
	for i := range engines {
		eps[i] = &countingEndpoint{Endpoint: h.Endpoint(transport.NodeID(i))}
		engines[i] = New(Config{Endpoint: eps[i], RoundTimeout: 5 * time.Second,
			Metrics: reg.Scope("site", fmt.Sprint(i))})
		engines[i].Start()
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
	})
	return engines, eps
}

// The price of a fault-free instance at n = 3 is ten messages: the two
// estimates, two proposals and six acks that have to cross the network,
// nothing to oneself, nothing of a second round, no DECIDE — and every
// site counts the decision as one it formed itself in round 0.
func TestFaultFreeMessageBudget(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	reg := metrics.NewRegistry()
	engines, eps := countedEngines(t, h, 3, reg)
	// Nodes 1 and 2 are in round 0 before the coordinator proposes, so
	// each of them acks the moment the proposal arrives — and a process
	// sends its ack before it can decide, so once all three have decided
	// every message of the instance has been sent. Propose returns before
	// the engine has entered the round; the estimate it then sends shows
	// that it has. What the two send the coordinator is held up for a
	// moment: an estimate that beat its own Propose would make it propose,
	// and perhaps decide, before it has entered round 0, and a process
	// that decides outside the round never acks.
	for _, from := range []transport.NodeID{1, 2} {
		h.SetLink(from, 0, transport.LinkProfile{Delay: 100 * time.Millisecond})
	}
	for _, i := range []int{1, 2, 0} {
		if i == 0 {
			testutil.Eventually(t, 5*time.Second, "nodes 1 and 2 to enter round 0", func() bool {
				return eps[1].sent("consensus.MsgEstimate") == 1 && eps[2].sent("consensus.MsgEstimate") == 1
			})
		}
		if err := engines[i].Propose(1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines {
		if got := collectDecision(t, e, 1, 5*time.Second); got != "v" {
			t.Fatalf("decided %v, want v", got)
		}
	}
	var est, prop, ack, later int
	for _, ep := range eps {
		est += ep.sent("consensus.MsgEstimate")
		prop += ep.sent("consensus.MsgPropose")
		ack += ep.sent("consensus.MsgAck")
		later += ep.later
	}
	if est != 2 || prop != 2 || ack != 6 || later != 0 {
		t.Fatalf("%d estimates, %d proposals, %d acks, %d messages of a later round; want 2, 2, 6, 0",
			est, prop, ack, later)
	}
	totals := make(map[string]float64)
	for _, sample := range reg.Snapshot() {
		totals[sample.Name] += sample.Value
	}
	if fast, all := totals["consensus_fast_decide_total"], totals["consensus_decided_total"]; fast != 3 || all != 3 {
		t.Fatalf("consensus_fast_decide_total %v of consensus_decided_total %v, want 3 of 3", fast, all)
	}
}
