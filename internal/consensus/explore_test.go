package consensus

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"otpdb/internal/transport"
)

// This file checks the round protocol by exhaustion. A world is three
// engines that are never started: the test calls their handlers itself,
// one event at a time, and everything they send lands in a list of
// pending packets that the explorer delivers in every possible order
// (links need not even be FIFO). The walk is a depth-first search over
// the choice of the next packet, replayed from scratch for every path and
// cut where two paths meet in the same state.

// Local events travel through the pending list like messages do.
type (
	// proposeEvent is the application calling Propose at the addressee.
	proposeEvent struct{ val string }
	// timeoutEvent is the addressee's round deadline passing.
	timeoutEvent struct{}
	// viewEvent is the addressee applying a membership change.
	viewEvent struct {
		epoch   uint64
		members []transport.NodeID
	}
)

type packet struct {
	from, to transport.NodeID
	msg      any
}

const (
	exploreSites = 3
	exploreInst  = 1
)

type world struct {
	engines [exploreSites]*Engine
	views   [exploreSites]*stubView
	down    [exploreSites]bool
	pending []packet

	// crashAfter, when ≥ 0, crashes node 0 the moment it has sent that
	// many proposals: later sends are lost, deliveries to it dropped.
	crashAfter int

	proposed  map[string]bool // values handed to Propose: validity
	acks      map[[3]int]int  // (from, to, round) → acks sent
	counts    map[string]int  // remote messages by type
	laterMsgs int             // remote messages of a round ≥ 1
	laterVals map[string]bool // values proposed in rounds ≥ 1
	round0    map[string]bool // values decided from a round-0 quorum
	overtaken bool            // a proposal arrived after its ack quorum
	violation string
}

// sender is the transport.Endpoint the engines of a world are built on.
type sender struct {
	w  *world
	id transport.NodeID
}

func (s *sender) ID() transport.NodeID { return s.id }
func (s *sender) N() int               { return exploreSites }
func (s *sender) Close() error         { return nil }

func (s *sender) Subscribe(string) <-chan transport.Envelope { return nil }
func (s *sender) Post(string, any)                           {}

func (s *sender) Broadcast(stream string, msg any) error {
	for to := 0; to < exploreSites; to++ {
		_ = s.Send(transport.NodeID(to), stream, msg)
	}
	return nil
}

func (s *sender) Send(to transport.NodeID, _ string, msg any) error {
	w := s.w
	if to == s.id {
		w.fail("node %v sent %T to itself through the transport", s.id, msg)
	}
	if w.down[s.id] || w.down[to] {
		return nil
	}
	w.counts[fmt.Sprintf("%T", msg)]++
	round := 0
	switch m := msg.(type) {
	case MsgEstimate:
		round = m.Round
	case MsgPropose:
		round = m.Round
		if m.Round > 0 {
			w.laterVals[m.Val.(string)] = true
		}
	case MsgAck:
		round = m.Round
		key := [3]int{int(s.id), int(to), m.Round}
		if w.acks[key]++; w.acks[key] > 1 {
			w.fail("node %v acked round %d twice", s.id, m.Round)
		}
	}
	if round > 0 {
		w.laterMsgs++
	}
	w.pending = append(w.pending, packet{s.id, to, msg})
	if _, ok := msg.(MsgPropose); ok && s.id == 0 && w.crashAfter >= 0 {
		if w.crashAfter--; w.crashAfter <= 0 {
			w.down[0] = true
			w.crashAfter = -1
		}
	}
	return nil
}

func (w *world) fail(format string, args ...any) {
	if w.violation == "" {
		w.violation = fmt.Sprintf(format, args...)
	}
}

// newWorld makes the static group {0, 1, 2}.
func newWorld(crashAfter int) *world {
	return buildWorld(crashAfter, func(transport.NodeID) (*stubView, uint64) {
		return &stubView{members: []transport.NodeID{0, 1, 2}}, 0
	})
}

// buildWorld makes a world in which node id starts under the view, and
// with the Config.CatchUpFrom, that start returns for it.
func buildWorld(crashAfter int, start func(id transport.NodeID) (*stubView, uint64)) *world {
	w := &world{
		crashAfter: crashAfter,
		proposed:   make(map[string]bool),
		acks:       make(map[[3]int]int),
		counts:     make(map[string]int),
		laterVals:  make(map[string]bool),
		round0:     make(map[string]bool),
	}
	for i := range w.engines {
		id := transport.NodeID(i)
		view, catchUp := start(id)
		w.views[i] = view
		w.engines[i] = New(Config{Endpoint: &sender{w: w, id: id}, View: view, CatchUpFrom: catchUp})
	}
	w.down[0] = crashAfter == 0
	return w
}

func (w *world) close() {
	for _, e := range w.engines {
		e.decisions.Close()
	}
}

func (w *world) add(to transport.NodeID, ev any) {
	w.pending = append(w.pending, packet{to, to, ev})
}

// step delivers pending packet i.
func (w *world) step(i int) {
	p := w.pending[i]
	w.pending = append(w.pending[:i:i], w.pending[i+1:]...)
	if w.down[p.to] {
		return
	}
	e := w.engines[p.to]
	before := e.decidedValue()
	switch m := p.msg.(type) {
	case proposeEvent:
		w.proposed[m.val] = true
		e.handlePropose(exploreInst, m.val)
	case viewEvent:
		*w.views[p.to] = stubView{epoch: m.epoch, members: m.members}
	case timeoutEvent:
		for _, st := range e.active {
			st.deadline = 0
		}
		e.checkDeadlines()
	default:
		e.handleEnvelope(transport.Envelope{From: p.from, Stream: Stream, Msg: p.msg})
	}
	if d := e.decided(exploreInst); before == nil && d != nil {
		if d.quorumRound == 0 {
			w.round0[d.val.(string)] = true
		}
		if _, ok := p.msg.(MsgPropose); ok && p.from != p.to {
			w.overtaken = true
		}
	}
}

func (e *Engine) decidedValue() any {
	if d := e.decided(exploreInst); d != nil {
		return d.val
	}
	return nil
}

// check asserts what must hold in every reachable state: agreement,
// validity, and that a value decided from a round-0 quorum is the only
// value a later round proposes.
func (w *world) check() {
	var decided any
	for _, e := range w.engines {
		v := e.decidedValue()
		if v == nil {
			continue
		}
		if !w.proposed[v.(string)] {
			w.fail("decided %v, which nobody proposed", v)
		}
		if decided != nil && v != decided {
			w.fail("disagreement: %v and %v", decided, v)
		}
		decided = v
	}
	for v := range w.round0 {
		for later := range w.laterVals {
			if later != v {
				w.fail("round 0 decided %q but a later round proposed %q", v, later)
			}
		}
	}
}

// settle plays the world on fairly and reports whether every live node
// decided: deliver everything, then let the deadline pass at the nodes in
// the lowest round — deadlines double from round to round, so a node
// that is behind catches up with one that is ahead — and again.
func (w *world) settle() bool {
	for i := 0; i < 20; i++ {
		for len(w.pending) > 0 {
			w.step(0)
		}
		lowest := -1
		for id, e := range w.engines {
			if st := e.instances[exploreInst]; !w.down[id] && e.decidedValue() == nil && (lowest < 0 || st.round < lowest) {
				lowest = st.round
			}
		}
		if lowest < 0 {
			return true
		}
		for id, e := range w.engines {
			if !w.down[id] && e.decidedValue() == nil && e.instances[exploreInst].round == lowest {
				w.add(transport.NodeID(id), timeoutEvent{})
			}
		}
	}
	return false
}

func (w *world) fingerprint() string {
	var b strings.Builder
	for id, e := range w.engines {
		fmt.Fprintf(&b, "n%d down=%v view=%d/%d own0=%v ", id, w.down[id], w.views[id].epoch, e.epoch, e.ownsRound0)
		if d := e.decided(exploreInst); d != nil {
			fmt.Fprintf(&b, "decided=%v q=%d", d.val, d.quorumRound)
		} else if st := e.instances[exploreInst]; st != nil {
			fmt.Fprintf(&b, "r=%d est=%v ts=%v started=%v", st.round, st.estimate, st.ts, st.started)
			rounds := slices.Clone(st.rounds)
			slices.SortFunc(rounds, func(a, b *round) int { return a.r - b.r })
			for _, rd := range rounds {
				fmt.Fprintf(&b, " r%d=%s", rd.r, rd.fingerprint())
			}
		}
		b.WriteByte('\n')
	}
	pend := make([]string, len(w.pending))
	for i, p := range w.pending {
		pend[i] = fmt.Sprintf("%v>%v %T%v", p.from, p.to, p.msg, p.msg)
	}
	sort.Strings(pend)
	fmt.Fprintf(&b, "crash=%d later=%v r0=%v %s", w.crashAfter, w.laterVals, w.round0, strings.Join(pend, ";"))
	return b.String()
}

func (rd *round) fingerprint() string {
	acks := slices.Sorted(slices.Values(rd.acks))
	ests := make([]string, len(rd.ests))
	for i, e := range rd.ests {
		ests[i] = fmt.Sprint(e)
	}
	sort.Strings(ests)
	return fmt.Sprintf("{e=%d p=%v a=%v prop=%v/%v acks=%v ests=%v}",
		rd.epoch, rd.proposed, rd.acked, rd.hasProp, rd.val, acks, ests)
}

// explore walks every delivery order of the world build makes, calling
// terminal on each state with nothing left to deliver.
func explore(t *testing.T, build func() *world, terminal func(*world)) (states int, overtaken bool) {
	t.Helper()
	seen := make(map[string]bool)
	var walk func(path []int)
	walk = func(path []int) {
		w := build()
		defer w.close()
		for _, choice := range path {
			w.step(choice)
		}
		w.check()
		overtaken = overtaken || w.overtaken
		fp := w.fingerprint()
		if seen[fp] || t.Failed() {
			return
		}
		seen[fp] = true
		if len(w.pending) == 0 {
			terminal(w)
			w.check()
		}
		if w.violation != "" {
			t.Errorf("after deliveries %v: %s\n%s", path, w.violation, fp)
			return
		}
		for i := range w.pending {
			walk(append(path[:len(path):len(path)], i))
		}
	}
	walk(nil)
	return len(seen), overtaken
}

// Fault-free: every node proposes its own value at some point, nobody's
// deadline passes. Whatever the order, round 0 decides everywhere, no
// message of a later round is ever sent, and the messages that cross the
// transport are at most 2 estimates, 2 proposals and 6 acks (plus a
// MsgDecide for an estimate that reaches the coordinator too late).
func TestExploreFaultFreeRoundZero(t *testing.T) {
	build := func() *world {
		w := newWorld(-1)
		for id, val := range []string{"a", "b", "c"} {
			w.add(transport.NodeID(id), proposeEvent{val: val})
		}
		return w
	}
	states, overtaken := explore(t, build, func(w *world) {
		for id, e := range w.engines {
			if e.decidedValue() == nil {
				w.fail("node %d never decided", id)
			}
		}
		if w.laterMsgs > 0 {
			w.fail("%d messages of a round ≥ 1 without any fault", w.laterMsgs)
		}
		est, prop, ack := w.counts["consensus.MsgEstimate"], w.counts["consensus.MsgPropose"], w.counts["consensus.MsgAck"]
		if est > 2 || prop != 2 || ack > 6 {
			w.fail("%d estimates, %d proposals, %d acks crossed the transport; want ≤ 2, 2, ≤ 6", est, prop, ack)
		}
	})
	if !overtaken {
		t.Error("no explored order had a node's ack quorum complete before the proposal reached it")
	}
	t.Logf("%d states", states)
}

// The round-0 coordinator proposes and crashes after k of its proposals
// left; the others have proposed values of their own and each may see its
// deadline pass at any moment. Safety holds in every state, and from
// every state with nothing left to deliver a fair continuation decides.
func TestExploreCoordinatorCrash(t *testing.T) {
	for k := 0; k <= 2; k++ {
		t.Run(fmt.Sprintf("after%dProposals", k), func(t *testing.T) {
			build := func() *world {
				w := newWorld(k)
				for id, val := range []string{"a", "b", "c"} {
					w.add(transport.NodeID(id), proposeEvent{val: val})
					w.step(len(w.pending) - 1)
				}
				for i := 0; i < 2; i++ {
					w.add(1, timeoutEvent{})
					w.add(2, timeoutEvent{})
				}
				return w
			}
			states, _ := explore(t, build, func(w *world) {
				if !w.settle() {
					w.fail("no decision under a fair schedule")
				}
			})
			t.Logf("%d states", states)
		})
	}
}

// Nobody crashes, but deadlines pass although the coordinator is merely
// slow, so that round 1 runs while round 0's acks are still on their way:
// the case the locking rule exists for. A value round 0 decided anywhere
// is the only one round 1 proposes, and everybody ends up with it. With
// three live nodes in two rounds the orders are too many to enumerate;
// this walks a fixed sample of them.
func TestSampleFalseSuspicion(t *testing.T) {
	locked := 0
	sample(t, 20000, func() *world {
		w := newWorld(-1)
		for id, val := range []string{"a", "b", "c"} {
			w.add(transport.NodeID(id), proposeEvent{val: val})
		}
		w.add(1, timeoutEvent{})
		w.add(2, timeoutEvent{})
		return w
	}, func(w *world) {
		if len(w.round0) > 0 && len(w.laterVals) > 0 {
			locked++
		}
	})
	if locked == 0 {
		t.Error("no sampled order had round 1 propose after round 0 decided")
	}
	t.Logf("%d orders put the lock to the test", locked)
}

// sample delivers what is pending in the world build makes in n random
// orders (a fixed sample: the generator is seeded), checking safety after
// every step, shows each world to drained once nothing is pending, and
// then wants a fair continuation to decide everywhere.
func sample(t *testing.T, n int, build func() *world, drained func(*world)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n && !t.Failed(); i++ {
		w := build()
		var path []int
		for len(w.pending) > 0 && w.violation == "" {
			path = append(path, rng.Intn(len(w.pending)))
			w.step(path[len(path)-1])
			w.check()
		}
		drained(w)
		if !w.settle() {
			w.fail("no decision under a fair schedule")
		}
		w.check()
		if w.violation != "" {
			t.Errorf("after deliveries %v: %s\n%s", path, w.violation, w.fingerprint())
		}
		w.close()
	}
}

// A coordinator that comes back as a fresh engine proposes for round 0 of
// an instance the others decided long ago. They answer with the decision
// and ack nothing; the only new acks are the newcomer's own.
func TestRestartedCoordinatorGetsDecisionBack(t *testing.T) {
	w := newWorld(-1)
	defer w.close()
	for id, val := range []string{"a", "b", "c"} {
		w.add(transport.NodeID(id), proposeEvent{val: val})
	}
	if !w.settle() {
		t.Fatal("no decision without any fault")
	}
	w.engines[0].decisions.Close()
	w.engines[0] = New(Config{Endpoint: &sender{w: w, id: 0}})
	clear(w.acks) // a new process: it knows of no ack it sent, and sends its own
	w.add(0, proposeEvent{val: "z"})
	w.step(0)
	if got := w.counts["consensus.MsgPropose"]; got != 4 {
		t.Fatalf("%d proposals sent in all, want the restarted coordinator's 2 on top of the first 2", got)
	}
	if !w.settle() {
		t.Fatal("the restarted coordinator never decided")
	}
	w.check()
	if w.violation != "" {
		t.Fatal(w.violation)
	}
	if got := w.engines[0].decidedValue(); got != "a" {
		t.Fatalf("restarted coordinator decided %v, want a", got)
	}
	for key := range w.acks {
		if key[0] != 0 {
			t.Fatalf("node %d acked round %d again after the restart", key[0], key[2])
		}
	}
}

// The head of the member list — round 0's coordinator — is removed while
// the instance runs: {0, 1, 2} becomes {1, 2}. Node 0 has proposed and
// acked; nodes 1 and 2 each propose, apply the change and see a deadline
// pass in any order, so node 1 may have acked node 0's proposal in the old
// epoch and be asked, as the new head, for a round-0 proposal in the new
// one. It must not make a second one out of the first estimate it sees:
// two round-0 proposals would both be adopted with stamp 1 and round 1
// could pick the one that was not locked.
func headRemoved() *world {
	w := newWorld(-1)
	w.add(0, proposeEvent{val: "a"})
	w.step(0)
	for _, id := range []transport.NodeID{1, 2} {
		w.add(id, proposeEvent{val: string('a' + rune(id))})
		w.add(id, viewEvent{epoch: 1, members: []transport.NodeID{1, 2}})
		w.add(id, timeoutEvent{})
	}
	return w
}

// A site with the lowest identifier joins while the instance runs: {1, 2}
// becomes {0, 1, 2}. Node 1 owns round 0 in the old epoch and proposes
// without a quorum; node 0, which joined and knows nothing of earlier
// configurations, gathers a majority of estimates first, and its
// proposal — the one of the later epoch — wins over node 1's wherever a
// later round finds both.
func lowerSiteJoins() *world {
	all := []transport.NodeID{0, 1, 2}
	w := buildWorld(-1, func(id transport.NodeID) (*stubView, uint64) {
		if id == 0 {
			return &stubView{epoch: 1, members: all}, exploreInst
		}
		return &stubView{members: []transport.NodeID{1, 2}}, 0
	})
	w.add(0, proposeEvent{val: "a"})
	for _, id := range []transport.NodeID{1, 2} {
		w.add(id, proposeEvent{val: string('a' + rune(id))})
		w.add(id, viewEvent{epoch: 1, members: all})
		w.add(id, timeoutEvent{})
	}
	return w
}

// epochChanges are the worlds in which the configuration moves under a
// running instance.
var epochChanges = []struct {
	name  string
	build func() *world
}{{"headRemoved", headRemoved}, {"lowerSiteJoins", lowerSiteJoins}}

// Every order of proposals, membership changes and messages, with the
// deadlines passing only once nothing else is left to deliver.
func TestExploreEpochChangeMidInstance(t *testing.T) {
	for _, c := range epochChanges {
		t.Run(c.name, func(t *testing.T) {
			states, _ := explore(t, func() *world {
				w := c.build()
				w.pending = slices.DeleteFunc(w.pending, func(p packet) bool {
					_, timeout := p.msg.(timeoutEvent)
					return timeout
				})
				return w
			}, func(w *world) {
				if !w.settle() {
					w.fail("no decision under a fair schedule")
				}
			})
			t.Logf("%d states", states)
		})
	}
}

// A fixed sample of the orders in which deadlines pass at any moment as
// well, so that rounds 0 and 1 overlap across the two epochs.
func TestSampleEpochChangeMidInstance(t *testing.T) {
	for _, c := range epochChanges {
		t.Run(c.name, func(t *testing.T) {
			sample(t, 20000, c.build, func(*world) {})
		})
	}
}

// take delivers (or, with drop, loses) the pending packet of msg's type
// from one node to another.
func (w *world) take(t *testing.T, from, to transport.NodeID, msg any, drop bool) {
	t.Helper()
	i := slices.IndexFunc(w.pending, func(p packet) bool {
		return p.from == from && p.to == to && fmt.Sprintf("%T", p.msg) == fmt.Sprintf("%T", msg)
	})
	if i < 0 {
		t.Fatalf("no %T pending from %v to %v", msg, from, to)
	}
	if drop {
		w.pending = slices.Delete(w.pending, i, i+1)
		return
	}
	w.step(i)
}

// Acks of the round that decided are not answered with MsgDecide (that
// would double the messages of every fault-free stage), so a process whose
// only traffic to reach the others is its round-0 ack learns nothing from
// them until its deadline passes. Node 0 crashes with its proposals out
// and its acks not; node 2 then loses node 1's ack for good. Node 1
// decides on its own ack and node 2's, node 2 holds one ack of two and
// waits — and gets the decision back for the estimate it sends on entering
// round 1.
func TestLostRound0AckConvergesThroughRound1(t *testing.T) {
	w := newWorld(2)
	defer w.close()
	for _, id := range []transport.NodeID{1, 2, 0} {
		w.add(id, proposeEvent{val: string('a' + rune(id))})
		w.step(len(w.pending) - 1)
	}
	w.take(t, 0, 1, MsgPropose{}, false)
	w.take(t, 0, 2, MsgPropose{}, false)
	w.take(t, 1, 2, MsgAck{}, true)
	w.take(t, 2, 1, MsgAck{}, false)
	for len(w.pending) > 0 { // what is left goes to node 0, which is down
		w.step(0)
	}
	if got := w.engines[1].decidedValue(); got != "a" {
		t.Fatalf("node 1 decided %v on its own ack and node 2's, want a", got)
	}
	if got := w.engines[2].decidedValue(); got != nil {
		t.Fatalf("node 2 decided %v holding one ack of two", got)
	}
	if n := w.counts["consensus.MsgDecide"]; n != 0 {
		t.Fatalf("%d MsgDecide sent for acks of the deciding round", n)
	}

	w.add(2, timeoutEvent{})
	for len(w.pending) > 0 {
		w.step(0)
	}
	if got := w.engines[2].decidedValue(); got != "a" {
		t.Fatalf("node 2 decided %v after its deadline passed, want a", got)
	}
	if est, dec := w.laterMsgs, w.counts["consensus.MsgDecide"]; est != 1 || dec != 1 {
		t.Fatalf("%d messages of round 1 and %d MsgDecide, want the estimate and its answer", est, dec)
	}
	w.check()
	if w.violation != "" {
		t.Fatal(w.violation)
	}
}
