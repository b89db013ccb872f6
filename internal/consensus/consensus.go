// Package consensus implements ◇S consensus with a rotating coordinator
// in the style of Chandra–Toueg, the agreement substrate referenced by
// the paper's atomic broadcast layer ([6] in Kemme et al., ICDCS'99),
// with a two-delay good case: acks are broadcast, so every process
// decides for itself and no DECIDE message is needed.
//
// The engine runs an unbounded sequence of independent consensus instances
// (one per OPT-ABcast stage). For each instance:
//
//	round r: coordinator = members[r mod n]
//	 estimate: on entering the round, every process sends its
//	           (estimate, ts) to the coordinator
//	 propose:  round 0, at the process that has headed the member list
//	           in every configuration so far — the coordinator broadcasts
//	           the first value it holds, its own or the first estimate to
//	           arrive (nothing can be locked before the first ballot, so
//	           there is nothing to wait for); any other round or
//	           coordinator — it gathers a majority of estimates and
//	           broadcasts the one with the highest ts
//	 ack:      a process in round r adopts the proposal (ts = r+1, in the
//	           proposal's epoch) and broadcasts one ack; it acks at most
//	           one proposal per round and never one of a round it has left
//	 decide:   any process holding a round's proposal and acks for that
//	           same proposal from a majority decides its value
//	 rotate:   a process still undecided at the round deadline, or
//	           suspecting the coordinator, enters round r+1
//
// A fault-free instance therefore costs two message delays (propose, ack)
// and, at n = 3, ten transport messages: 2 estimates, 2 proposals, 6 acks.
// Messages a process addresses to itself never touch the transport.
//
// Nobody relays decisions. A process that missed a quorum keeps rotating,
// and any estimate or proposal — or an ack of a round other than the one
// that decided — reaching a process that has decided is answered with
// MsgDecide; MsgDecideReq closes gaps the ordering layer detects.
//
// An undecided instance is a struct in a map. Its decision moves to a slot
// of a ring indexed by instance mod decisionHorizon — value, instance and
// deciding round, 32 bytes — and the struct, rounds and all, serves a later
// instance. The slot is overwritten decisionHorizon instances later, and
// then the instance is forgotten: what reaches a process about an instance
// below its horizon is counted and dropped. The sender is further behind
// than the ordering layer can bring back from retained history either, and
// rejoins by state transfer.
//
// Safety (agreement, validity) holds under arbitrary failure-detector
// mistakes; termination needs a majority of correct processes and ◇S.
// DESIGN.md §6 ("Ordering stages", "Why it is safe") carries the argument.
package consensus

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"otpdb/internal/fd"
	"otpdb/internal/metrics"
	"otpdb/internal/queue"
	"otpdb/internal/transport"
)

// Stream is the transport stream used by the engine.
const Stream = "cons"

// Wire messages (wire.go has their codecs). Values proposed through the
// engine must themselves be registered with the transport when running
// over TCP.
//
// Estimate, propose and ack messages carry the sender's membership
// epoch: quorum sizes and coordinator rotation are properties of one
// configuration, so a process only counts round traffic from processes
// in the same epoch (DESIGN.md §9). Decisions are epoch-free — a
// decision, once reached, is safe to adopt in any epoch — and a laggard
// straddling a reconfiguration gets one in answer to its next estimate.
type (
	// MsgEstimate carries a process's current estimate and the round in
	// which it was last updated to the coordinator of the round entered.
	MsgEstimate struct {
		Inst  uint64
		Round int
		Epoch uint64
		Est   any
		// TS and TSEpoch say which proposal Est was adopted from: round+1
		// and epoch of that proposal, both zero for a value never adopted.
		TS      int
		TSEpoch uint64
	}
	// MsgPropose is the coordinator's proposal for a round.
	MsgPropose struct {
		Inst  uint64
		Round int
		Epoch uint64
		Val   any
	}
	// MsgAck reports to the whole group that the sender adopted the
	// round's proposal.
	MsgAck struct {
		Inst  uint64
		Round int
		Epoch uint64
	}
	// MsgDecide carries a decision to a process that shows it has not
	// decided yet.
	MsgDecide struct {
		Inst uint64
		Val  any
	}
	// MsgDecideReq asks peers to retransmit the decisions of every
	// instance >= From they know of — the catch-up primitive a restarted
	// site uses to close the gap between the instance it rejoined at and
	// the instances decided while it was down. Any correct peer can serve
	// the request as long as From is within its horizon (decisionHorizon).
	MsgDecideReq struct {
		From uint64
	}
)

// Decision is an output of the engine.
type Decision struct {
	Instance uint64
	Value    any
}

// The engine goroutine waits on one thing, the reception queue of Stream,
// and everything else it must react to is posted there
// (transport.Endpoint.Post) as one of these. Their types are unexported,
// so none can arrive from the network.
type (
	// proposeReq is Propose: this process's initial value for an instance.
	proposeReq struct {
		inst uint64
		val  any
	}
	// tickEvent is the deadline timer firing.
	tickEvent struct{}
	// sinkReq is SetSink.
	sinkReq func(*Decision)
	// dumpReq is Dump: where to send the reply.
	dumpReq chan string
	// wakeEvent carries nothing: Stop posts it so that an idle engine
	// looks at the stopped flag.
	wakeEvent struct{}
)

// View exposes the group membership the engine runs under. Majority
// sizes and coordinator rotation derive from the member list; the epoch
// stamps and filters round traffic so two configurations never mix
// their quorums. Implementations must be safe for concurrent use and
// may change between calls (internal/member.Tracker is the standard
// implementation). The epoch and the member list are returned by one
// atomic call — every message handler takes exactly one snapshot and
// filters, counts and stamps against it, so a configuration change
// landing mid-handler cannot pair an old-epoch vote set with a
// new-epoch majority (the snapshot is either wholly old or wholly new).
// Epochs number the configurations consecutively: an epoch that is not
// the last one seen plus one tells the engine it missed a configuration.
type View interface {
	// Snapshot returns the configuration's epoch and its member
	// identifiers in ascending order, captured atomically. Callers must
	// treat the returned slice as immutable.
	Snapshot() (uint64, []transport.NodeID)
}

// epView is the default static view: the endpoint's full node range at
// epoch 0, preserving the fixed-group behaviour for engines built
// without membership. Only correct for groups whose size never changes
// while the engine runs; dynamic groups must supply a real View.
type epView struct {
	ep  transport.Endpoint
	mu  sync.Mutex
	ids []transport.NodeID
}

func (v *epView) Snapshot() (uint64, []transport.NodeID) {
	n := v.ep.N()
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.ids) != n {
		v.ids = make([]transport.NodeID, n)
		for i := range v.ids {
			v.ids[i] = transport.NodeID(i)
		}
	}
	return 0, v.ids
}

// majorityOf and coordOf derive quorum size and coordinator rotation
// from one view snapshot. Member identifiers need not be contiguous
// once sites have been removed.
func majorityOf(members []transport.NodeID) int { return len(members)/2 + 1 }

func coordOf(members []transport.NodeID, round int) transport.NodeID {
	return members[round%len(members)]
}

// Config parameterises an Engine.
type Config struct {
	// Endpoint is the node's transport attachment.
	Endpoint transport.Endpoint
	// Suspector drives coordinator rotation. Defaults to never-suspect
	// (rounds then advance on RoundTimeout alone).
	Suspector fd.Suspector
	// RoundTimeout bounds how long a process waits for a round to decide
	// before entering the next one, in addition to failure-detector
	// suspicion. Defaults to 100 ms. Deadlines are checked ticksPerRound
	// times per RoundTimeout.
	RoundTimeout time.Duration
	// CatchUpFrom, when positive, makes the engine broadcast a decision
	// retransmission request for instances >= CatchUpFrom as soon as it
	// starts — the rejoin path of a restarted site. Decisions made at
	// peers after they serve the request form here too, from the
	// proposals and acks every member is sent (the endpoint is live by
	// then), so the two channels together cover every instance >=
	// CatchUpFrom.
	CatchUpFrom uint64
	// View supplies the (possibly dynamic) group membership. Defaults to
	// the endpoint's full static node range at epoch 0.
	View View
	// Metrics, when non-nil, registers engine telemetry (decision
	// latency, rounds per instance, round-0 decisions, decision
	// re-requests) under the scope's labels.
	Metrics *metrics.Scope
}

// Engine executes consensus instances. Create with New, then Start.
type Engine struct {
	ep        transport.Endpoint
	id        transport.NodeID
	susp      fd.Suspector
	view      View
	timeout   time.Duration
	tickEvery time.Duration
	catchUp   uint64

	// decisions is where a decision goes while no sink is installed.
	decisions *queue.Q[Decision]

	// Engine-goroutine state (no locking needed).
	//
	// sink is where decisions go once SetSink has taken effect, and queued
	// how many went to the decisions queue before: what it had to move.
	sink   func(*Decision)
	queued int
	// instances holds an undecided instance from the first message about
	// it until it decides or falls below floor. free keeps the structs of
	// decided ones, emptied, for the next instances.
	instances map[uint64]*instance
	free      []*instance
	// ring holds the decisions of [floor, top], instance inst at slot inst
	// mod horizon, in chunks of decChunk slots allocated when the window
	// first reaches them. Nothing is held for an instance below floor.
	ring    [][]slot
	horizon uint64 // ring slots: decisionHorizon; tests lower it
	top     uint64 // highest decided instance
	floor   uint64 // lowest instance still held
	// active holds the instances proposed here and still undecided: the
	// only ones a tick has to look at.
	active map[uint64]*instance
	// loopback queues the messages this process addressed to itself. They
	// are handled when the current handler returns and never reach the
	// transport.
	loopback []any
	// epoch is the configuration last seen by snapshot. ownsRound0 says
	// that this process may propose in round 0 without an estimate quorum:
	// it started with the group (no CatchUpFrom) and has headed the member
	// list in every configuration from then on, none of them skipped — so
	// no other process was ever the round-0 coordinator of any instance.
	// Once false it stays false.
	epoch      uint64
	ownsRound0 bool

	// tick counts the deadline timer's firings. It is the engine's only
	// notion of time: round deadlines are tick numbers, and nothing on the
	// way from a proposal to its decision reads a clock.
	tick uint64

	// Telemetry (inert unregistered instruments without cfg.Metrics; timed
	// says there is a scope, and only then is decLatency's clock read).
	// decLatency covers locally proposed instances only: Propose to
	// decision. rounds counts rounds entered before the decision landed —
	// 1 means round 0 was enough. fastCount counts the decisions this
	// process formed itself from a round-0 ack quorum, the two-delay path;
	// decCount less fastCount took a later round or came by MsgDecide.
	timed      bool
	decLatency *metrics.Histogram
	rounds     *metrics.Histogram
	reReqs     *metrics.Counter
	decCount   *metrics.Counter
	fastCount  *metrics.Counter
	// belowCount counts the messages dropped because they concern an
	// instance below the horizon.
	belowCount *metrics.Counter
	// owns0 shows ownsRound0, 1 or 0: after the first change of head it is
	// 0 at every site and every instance pays the estimate round again.
	owns0 *metrics.Gauge

	// stopped is set by Stop and read by the engine goroutine before every
	// event, so a stop overtakes whatever is queued.
	started, stopped atomic.Bool
	done             chan struct{}
}

// decisionHorizon is how many instances a decision is kept for, counted
// from the highest decided instance down. An instance orders at least one
// message — but for the few whose whole decision the overlapping instances
// below them had already ordered — so the window reaches about as far back
// as the ordering layer's retained definitive history (abcast's 64Ki
// messages by default): a peer that history can still bring up to date
// finds every decision it needs, and one that is further behind needs a
// state transfer anyway.
const decisionHorizon = 64 << 10

// ticksPerRound is how many times per RoundTimeout the deadline timer
// fires: the granularity of round deadlines.
const ticksPerRound = 4

// decChunk is the number of slots the decision ring grows by.
const decChunk = 1024

// slot is a decided instance as the ring keeps it.
type slot struct {
	val any
	tag uint64 // the instance + 1; 0 while the slot is empty
	// quorumRound is the round whose ack quorum decided here, -1 when the
	// decision came by MsgDecide.
	quorumRound int
}

// instance is the state machine of an undecided consensus instance.
type instance struct {
	inst      uint64
	round     int // round this process is in; -1 until proposed here
	estimate  any
	ts        stamp
	startedAt time.Time // local Propose time, read only with a metrics scope
	started   bool      // local Propose seen
	deadline  uint64    // the tick at which a started instance leaves its round

	// Any process may coordinate some round and may decide from any
	// round's acks — even of instances it never proposed — so every
	// instance tracks rounds: the few it has seen traffic of, in order of
	// first use. Past len, a recycled struct keeps the emptied rounds of
	// the instances it served before.
	rounds []*round
}

// stamp names the proposal an estimate was adopted from: round+1 and the
// epoch the proposal was made in, zero for a process's own initial value.
// Stamps order by round first. Two proposals of one round exist only when
// the configuration changed in between, and then the one of the later
// epoch is the one that may have been acked by a majority (DESIGN.md §6).
type stamp struct {
	round int
	epoch uint64
}

func (a stamp) after(b stamp) bool {
	return a.round > b.round || a.round == b.round && a.epoch > b.epoch
}

// round is one round's state at one process. Votes — the proposal held,
// the acks and the estimates — are counted within one epoch and dropped
// when the configuration changes (see at). proposed and acked outlive
// the epoch: a process proposes once and acks once per round whatever the
// configuration, which is what the locking argument counts on (DESIGN.md
// §6).
type round struct {
	r        int
	epoch    uint64
	proposed bool // this process, as coordinator, has proposed
	acked    bool // this process has acked a proposal of this round
	hasProp  bool // val holds the round's proposal
	val      any
	acks     []transport.NodeID // who acked, each once
	ests     []estimate         // coordinator of a round ≥ 1: at most one per sender
}

type estimate struct {
	from transport.NodeID
	est  any
	ts   stamp
}

// at returns the state of round r, creating it on first use and dropping
// votes collected under another epoch: a quorum must be counted within
// one configuration, never mixing votes accepted under two majorities.
func (st *instance) at(r int, epoch uint64) *round {
	for _, rd := range st.rounds {
		if rd.r == r {
			if rd.epoch != epoch {
				*rd = round{r: r, epoch: epoch, proposed: rd.proposed, acked: rd.acked}
			}
			return rd
		}
	}
	if n := len(st.rounds); n < cap(st.rounds) && st.rounds[:n+1][n] != nil {
		st.rounds = st.rounds[:n+1]
		rd := st.rounds[n]
		rd.r, rd.epoch = r, epoch
		return rd
	}
	rd := &round{r: r, epoch: epoch}
	st.rounds = append(st.rounds, rd)
	return rd
}

// New creates an engine. Call Start before proposing.
func New(cfg Config) *Engine {
	if cfg.Endpoint == nil {
		panic("consensus: Config.Endpoint is required")
	}
	if cfg.Suspector == nil {
		cfg.Suspector = fd.StaticSuspector{}
	}
	if cfg.View == nil {
		cfg.View = &epView{ep: cfg.Endpoint}
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 100 * time.Millisecond
	}
	epoch, members := cfg.View.Snapshot()
	e := &Engine{
		ep:         cfg.Endpoint,
		id:         cfg.Endpoint.ID(),
		susp:       cfg.Suspector,
		view:       cfg.View,
		timeout:    cfg.RoundTimeout,
		tickEvery:  cfg.RoundTimeout / ticksPerRound,
		catchUp:    cfg.CatchUpFrom,
		epoch:      epoch,
		decisions:  queue.New[Decision](),
		instances:  make(map[uint64]*instance),
		horizon:    decisionHorizon,
		active:     make(map[uint64]*instance),
		timed:      cfg.Metrics != nil,
		decLatency: cfg.Metrics.Histogram("consensus_decision_seconds"),
		rounds:     cfg.Metrics.SizeHistogram("consensus_rounds_per_instance"),
		reReqs:     cfg.Metrics.Counter("consensus_decide_rerequest_total"),
		decCount:   cfg.Metrics.Counter("consensus_decided_total"),
		fastCount:  cfg.Metrics.Counter("consensus_fast_decide_total"),
		belowCount: cfg.Metrics.Counter("consensus_below_horizon_total"),
		owns0:      cfg.Metrics.Gauge("consensus_owns_round0"),
		done:       make(chan struct{}),
	}
	e.setOwnsRound0(cfg.CatchUpFrom == 0 && members[0] == e.id)
	return e
}

// setOwnsRound0 records the promise and shows it as consensus_owns_round0.
func (e *Engine) setOwnsRound0(owns bool) {
	e.ownsRound0 = owns
	if owns {
		e.owns0.Set(1)
	} else {
		e.owns0.Set(0)
	}
}

// Decisions returns the channel of decided instances. Each instance is
// announced exactly once, in decision order at this node — unless SetSink
// has sent the decisions elsewhere.
func (e *Engine) Decisions() <-chan Decision { return e.decisions.Chan() }

// SetSink makes the engine hand every decision to sink, on the engine
// goroutine, instead of queueing it for Decisions: the ordering layer's
// way of getting decisions into the queue it already waits on. Decisions
// reached before the call — the engine may be running — go to sink first,
// in order, so nobody may be reading Decisions. sink must not block; each
// decision it is handed is its own to keep.
func (e *Engine) SetSink(sink func(*Decision)) {
	e.ep.Post(Stream, sinkReq(sink))
}

// Start launches the engine goroutine.
func (e *Engine) Start() {
	if !e.started.Swap(true) {
		go e.run()
	}
}

// Stop terminates the engine and waits for its goroutine. What the engine
// has been sent and not yet handled is left unhandled.
func (e *Engine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.ep.Post(Stream, wakeEvent{})
	<-e.done
	e.decisions.Close()
}

// ErrStopped is returned by Propose on a stopped engine.
var ErrStopped = errors.New("consensus: engine stopped")

// Propose submits this node's initial value for an instance. Proposing
// twice for the same instance is a no-op; different nodes may propose
// different values (validity guarantees the decision is one of them).
// Propose never waits for the engine goroutine.
func (e *Engine) Propose(inst uint64, val any) error {
	if e.stopped.Load() {
		return ErrStopped
	}
	e.ep.Post(Stream, proposeReq{inst: inst, val: val})
	return nil
}

// run is the engine goroutine: one queue, one event at a time. The
// deadline timer is re-armed when its tick has been handled, so ticks
// never pile up behind a backlog, and stopped when the loop ends, so
// nothing posts for a stopped engine.
func (e *Engine) run() {
	defer close(e.done)
	in := e.ep.Subscribe(Stream)
	if e.catchUp > 0 {
		// Subscribe first, then ask: every decision reached after a peer
		// served the request forms here as well, from the proposals and
		// acks all members are sent (the transport buffers messages from
		// subscription time), so the reply and the live stream overlap
		// with no gap.
		e.RequestDecisions(e.catchUp)
	}
	timer := time.AfterFunc(e.tickEvery, func() { e.ep.Post(Stream, tickEvent{}) })
	defer timer.Stop()
	for env := range in {
		if e.stopped.Load() {
			return
		}
		switch m := env.Msg.(type) {
		case proposeReq:
			e.handlePropose(m.inst, m.val)
		case tickEvent:
			e.tick++
			e.checkDeadlines()
			timer.Reset(e.tickEvery)
		case sinkReq:
			// Only this goroutine pushes to the queue and nobody else is
			// reading it: exactly queued decisions are on their way out of
			// it.
			for ; e.queued > 0; e.queued-- {
				d := <-e.decisions.Chan()
				m(&d)
			}
			e.sink = m
		case dumpReq:
			m <- e.dumpLocked()
		case wakeEvent:
		default:
			e.handleEnvelope(env)
		}
	}
}

// decided returns the ring slot of inst if inst is decided and not below
// the horizon, nil otherwise.
func (e *Engine) decided(inst uint64) *slot {
	if inst < e.floor || e.ring == nil {
		return nil
	}
	i := inst % e.horizon
	if c := e.ring[i/decChunk]; c != nil && c[i%decChunk].tag == inst+1 {
		return &c[i%decChunk]
	}
	return nil
}

// keep writes the decision of inst into its ring slot, over the one
// horizon instances below it.
func (e *Engine) keep(inst uint64, val any, quorumRound int) {
	if e.ring == nil {
		e.ring = make([][]slot, (e.horizon+decChunk-1)/decChunk)
	}
	i := inst % e.horizon
	c := i / decChunk
	if e.ring[c] == nil {
		e.ring[c] = make([]slot, min(decChunk, e.horizon-c*decChunk))
	}
	e.ring[c][i%decChunk] = slot{val: val, tag: inst + 1, quorumRound: quorumRound}
}

// get returns the state of the undecided instance inst, creating it on
// first use, or nil when inst is below the horizon: the caller drops what
// it was handling. Callers have looked in the ring first.
func (e *Engine) get(inst uint64) *instance {
	if st, ok := e.instances[inst]; ok {
		return st
	}
	if inst < e.floor {
		e.belowCount.Inc()
		return nil
	}
	var st *instance
	if n := len(e.free); n > 0 {
		st, e.free = e.free[n-1], e.free[:n-1]
	} else {
		st = new(instance)
	}
	st.inst, st.round = inst, -1
	e.instances[inst] = st
	return st
}

// release empties a struct the engine is done with and keeps it for a
// later instance, with its rounds and their vote slices: no proposal,
// ack, estimate or stamp of one instance may be seen by the next.
func (e *Engine) release(st *instance) {
	for _, rd := range st.rounds {
		clear(rd.ests)
		*rd = round{acks: rd.acks[:0], ests: rd.ests[:0]}
	}
	*st = instance{rounds: st.rounds[:0]}
	e.free = append(e.free, st)
}

// retire moves floor up behind top and forgets the undecided instances
// that fell below it. The ring's slots below floor are left to be
// overwritten.
func (e *Engine) retire() {
	if e.top < e.horizon || e.top-e.horizon < e.floor {
		return
	}
	e.floor = e.top - e.horizon + 1
	for inst, st := range e.instances {
		if inst < e.floor {
			delete(e.instances, inst)
			delete(e.active, inst)
			e.release(st)
		}
	}
}

// snapshot is the engine goroutine's view.Snapshot: it also keeps
// ownsRound0 up to date. A process that joined a running group knows
// nothing of the configurations before its own; one that sees the epoch
// jump has missed a configuration that another process may have headed.
func (e *Engine) snapshot() (uint64, []transport.NodeID) {
	epoch, members := e.view.Snapshot()
	if epoch != e.epoch {
		e.setOwnsRound0(e.ownsRound0 && epoch == e.epoch+1 && members[0] == e.id)
		e.epoch = epoch
	}
	return epoch, members
}

// send hands msg to one member. What this process addresses to itself
// is queued for drainLoopback instead: a hop through the transport would
// cost a message delay and buy nothing.
func (e *Engine) send(to transport.NodeID, msg any) {
	if to == e.id {
		e.loopback = append(e.loopback, msg)
		return
	}
	_ = e.ep.Send(to, Stream, msg)
}

func (e *Engine) broadcast(members []transport.NodeID, msg any) {
	for _, to := range members {
		e.send(to, msg)
	}
}

// drainLoopback handles the self-addressed messages the handlers queued,
// including those their own handling queues. Every entry point of the
// engine goroutine ends with it, so a handler always runs to completion
// before the next message — loopback or not — is looked at.
func (e *Engine) drainLoopback() {
	for i := 0; i < len(e.loopback); i++ {
		e.handle(e.id, e.loopback[i])
	}
	clear(e.loopback)
	e.loopback = e.loopback[:0]
}

func (e *Engine) handlePropose(inst uint64, val any) {
	if e.decided(inst) != nil {
		return
	}
	st := e.get(inst)
	if st == nil || st.started {
		return
	}
	st.started = true
	if e.timed {
		st.startedAt = time.Now()
	}
	st.estimate = val
	e.active[inst] = st
	e.startRound(st, 0)
	e.drainLoopback()
}

// startRound enters round r: send the estimate to the coordinator and arm
// the round deadline. The deadline backs off exponentially with the round
// number so that, even when the configured timeout undershoots the actual
// message delay, some round is eventually long enough for a proposal and
// its acks to get through — the practical realization of the ◇S
// eventual-timeliness assumption that CT's termination proof needs. It is
// counted in ticks, rounded so that the round never ends early: the tick
// in progress is of unknown age, the ones after it are whole.
func (e *Engine) startRound(st *instance, r int) {
	epoch, members := e.snapshot()
	st.round = r
	timeout := e.timeout << uint(min(r, 6))
	st.deadline = e.tick + 1 + uint64((timeout+e.tickEvery-1)/e.tickEvery)
	e.send(coordOf(members, r), MsgEstimate{
		Inst:    st.inst,
		Round:   r,
		Epoch:   epoch,
		Est:     st.estimate,
		TS:      st.ts.round,
		TSEpoch: st.ts.epoch,
	})
	// A proposal for this round may have arrived before we entered it.
	if rd := st.at(r, epoch); rd.hasProp {
		e.ack(st, rd, epoch, members)
	}
}

func (e *Engine) handleEnvelope(env transport.Envelope) {
	e.handle(env.From, env.Msg)
	e.drainLoopback()
}

func (e *Engine) handle(from transport.NodeID, msg any) {
	switch m := msg.(type) {
	case MsgEstimate:
		e.onEstimate(from, m)
	case MsgPropose:
		e.onPropose(from, m)
	case MsgAck:
		e.onAck(from, m)
	case MsgDecide:
		e.onDecide(m)
	case MsgDecideReq:
		e.onDecideReq(from, m)
	}
}

// RequestDecisions asks every other member to retransmit the decisions
// of every instance at or above from. The ordering layer calls it when
// it detects a decision gap — typically after a healed partition
// swallowed a stage's proposals and acks. Safe from any goroutine.
func (e *Engine) RequestDecisions(from uint64) {
	e.reReqs.Inc()
	_, members := e.view.Snapshot()
	for _, to := range members {
		if to != e.id {
			_ = e.ep.Send(to, Stream, MsgDecideReq{From: from})
		}
	}
}

// onDecideReq retransmits known decisions to a catching-up peer, in
// instance order. A request that starts below the horizon is dropped whole:
// the peer processes decisions in order, and the first ones it needs are
// gone.
func (e *Engine) onDecideReq(from transport.NodeID, m MsgDecideReq) {
	if m.From < e.floor {
		e.belowCount.Inc()
		return
	}
	for inst := m.From; inst <= e.top; inst++ {
		if d := e.decided(inst); d != nil {
			e.sendDecision(from, inst, d.val)
		}
	}
}

// sendDecision answers a process that is still working on a decided
// instance. Nobody re-runs the round protocol for a decided instance and
// nobody relays decisions, so this is how a process that missed the
// deciding round's proposal or acks — it was partitioned away, or the
// sender crashed between two sends — converges. The handlers do this
// before they look at the message's epoch: a decision holds in any
// epoch, and a process left behind in an old one needs it most.
func (e *Engine) sendDecision(to transport.NodeID, inst uint64, val any) {
	e.send(to, MsgDecide{Inst: inst, Val: val})
}

// onEstimate is the coordinator's step. In round 0 the process that owns
// it (ownsRound0) proposes the first value to arrive, its own or a
// peer's: it alone ever proposes in round 0, no round precedes it, so no
// value can be locked yet and any estimate is safe. Every other proposal
// waits for a majority of estimates and takes the one with the highest
// stamp, which is the value an earlier proposal may have locked — in
// round 0 too, where the majority tells the coordinator nothing but keeps
// its senders from acking the round-0 proposal of an earlier epoch.
// Estimates from another epoch are dropped: their sender counts toward
// that epoch's quorum, not ours. One snapshot serves the filter, the
// majority and the stamp, so a configuration change landing mid-handler
// cannot mix the two epochs.
func (e *Engine) onEstimate(from transport.NodeID, m MsgEstimate) {
	if d := e.decided(m.Inst); d != nil {
		e.sendDecision(from, m.Inst, d.val)
		return
	}
	st := e.get(m.Inst)
	if st == nil {
		return
	}
	epoch, members := e.snapshot()
	if m.Epoch != epoch {
		return
	}
	if coordOf(members, m.Round) != e.id {
		return
	}
	rd := st.at(m.Round, epoch)
	if rd.proposed {
		return
	}
	val := m.Est
	if m.Round > 0 || !e.ownsRound0 {
		// A process sends one estimate per round; a second copy is a
		// retransmission.
		if !slices.ContainsFunc(rd.ests, func(known estimate) bool { return known.from == from }) {
			rd.ests = append(rd.ests, estimate{from, m.Est, stamp{m.TS, m.TSEpoch}})
		}
		if len(rd.ests) < majorityOf(members) {
			return
		}
		best := rd.ests[0]
		for _, est := range rd.ests[1:] {
			if est.ts.after(best.ts) {
				best = est
			}
		}
		val, rd.ests = best.est, nil
	}
	rd.proposed = true
	e.broadcast(members, MsgPropose{Inst: m.Inst, Round: m.Round, Epoch: epoch, Val: val})
}

// onPropose holds the round's proposal — whatever round this process is
// in, because any round's acks may decide — and acks it when it is this
// process's current round.
func (e *Engine) onPropose(from transport.NodeID, m MsgPropose) {
	if d := e.decided(m.Inst); d != nil {
		e.sendDecision(from, m.Inst, d.val)
		return
	}
	st := e.get(m.Inst)
	if st == nil {
		return
	}
	epoch, members := e.snapshot()
	if m.Epoch != epoch {
		return
	}
	rd := st.at(m.Round, epoch)
	if rd.hasProp {
		return
	}
	rd.hasProp, rd.val = true, m.Val
	if m.Round == st.round {
		e.ack(st, rd, epoch, members)
	}
	// Under jitter the acks may have overtaken the proposal.
	e.tryDecide(st, m.Round, rd, members)
}

// ack adopts the proposal rd holds for the round this process is in and
// tells the whole group, once per round. The process then stays in the
// round until it decides, the deadline passes or the coordinator is
// suspected: entering the next round any sooner would only produce
// traffic the decision makes void.
func (e *Engine) ack(st *instance, rd *round, epoch uint64, members []transport.NodeID) {
	if rd.acked {
		return
	}
	rd.acked = true
	st.estimate = rd.val
	// The adoption stamp must dominate the never-adopted initial
	// estimates (the zero stamp) even in round 0, otherwise a later
	// coordinator could propose a value different from one already locked
	// by a round-0 majority — the classic CT locking argument.
	st.ts = stamp{st.round + 1, epoch}
	e.broadcast(members, MsgAck{Inst: st.inst, Round: st.round, Epoch: epoch})
}

// onAck counts one ack per sender and round. Like onEstimate, the filter,
// the quorum count and the membership all come from one snapshot.
func (e *Engine) onAck(from transport.NodeID, m MsgAck) {
	if d := e.decided(m.Inst); d != nil {
		// An ack of the round that decided here trails its own quorum: the
		// sender is being sent the same acks. Any other round's ack comes
		// from a process the decision has not reached.
		if m.Round != d.quorumRound {
			e.sendDecision(from, m.Inst, d.val)
		}
		return
	}
	st := e.get(m.Inst)
	if st == nil {
		return
	}
	epoch, members := e.snapshot()
	if m.Epoch != epoch {
		return
	}
	rd := st.at(m.Round, epoch)
	if slices.Contains(rd.acks, from) {
		return
	}
	if rd.acks == nil {
		rd.acks = make([]transport.NodeID, 0, len(members))
	}
	rd.acks = append(rd.acks, from)
	e.tryDecide(st, m.Round, rd, members)
}

// tryDecide decides round r's proposal once a majority has acked it. Any
// process may: a majority of acks means the value is locked — every later
// round can only propose it again — so whoever sees the quorum knows the
// only value this instance can ever decide.
func (e *Engine) tryDecide(st *instance, r int, rd *round, members []transport.NodeID) {
	if !rd.hasProp || len(rd.acks) < majorityOf(members) {
		return
	}
	if r == 0 {
		e.fastCount.Inc()
	}
	e.decide(st, rd.val, r)
}

func (e *Engine) onDecide(m MsgDecide) {
	if e.decided(m.Inst) != nil {
		return
	}
	if st := e.get(m.Inst); st != nil {
		e.decide(st, m.Val, -1)
	}
}

// decide moves st's decision into the ring, announces it and releases st,
// which the caller must not touch again.
func (e *Engine) decide(st *instance, val any, quorumRound int) {
	inst := st.inst
	e.decCount.Inc()
	if st.started {
		if e.timed {
			e.decLatency.Observe(time.Since(st.startedAt))
		}
		e.rounds.ObserveInt(int64(st.round) + 1)
		delete(e.active, inst)
	}
	delete(e.instances, inst)
	e.release(st)
	e.keep(inst, val, quorumRound)
	if e.sink != nil {
		// A copy: the slot is overwritten horizon decisions later.
		e.sink(&Decision{Instance: inst, Value: val})
	} else {
		e.queued++
		e.decisions.Push(Decision{Instance: inst, Value: val})
	}
	if inst > e.top {
		e.top = inst
		e.retire()
	}
}

// checkDeadlines moves every instance that is still undecided past its
// round's deadline, or whose coordinator the failure detector suspects,
// into the next round.
func (e *Engine) checkDeadlines() {
	_, members := e.snapshot()
	for _, st := range e.active {
		if e.tick < st.deadline && !e.susp.Suspected(coordOf(members, st.round)) {
			continue
		}
		e.startRound(st, st.round+1)
	}
	e.drainLoopback()
}

// String aids debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("consensus.Engine(%v)", e.id)
}

// Dump returns a human-readable snapshot of all undecided instances, for
// debugging stuck protocols. It is served by the engine goroutine.
func (e *Engine) Dump() string {
	reply := make(dumpReq, 1)
	e.ep.Post(Stream, reply)
	select {
	case s := <-reply:
		return s
	case <-e.done:
		return "engine stopped"
	}
}

func (e *Engine) dumpLocked() string {
	out := fmt.Sprintf("%v:", e)
	for inst, st := range e.instances {
		out += fmt.Sprintf(" [inst=%d round=%d started=%v", inst, st.round, st.started)
		for _, rd := range st.rounds {
			out += fmt.Sprintf(" r%d{prop=%v acked=%v acks=%d}", rd.r, rd.hasProp, rd.acked, len(rd.acks))
		}
		out += "]"
	}
	if len(e.instances) == 0 {
		out += " all-decided"
	}
	return out
}
