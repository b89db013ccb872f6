package abcast

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"otpdb/internal/consensus"
	"otpdb/internal/metrics"
	"otpdb/internal/queue"
	"otpdb/internal/transport"
)

// Optimistic is the OPT-ABcast engine. Every site Opt-delivers messages in
// raw reception order; the definitive order is agreed in numbered stages,
// one consensus instance per stage, where each site proposes its own
// tentative order of not-yet-decided messages. Spontaneous total order
// makes all proposals equal and the stage decides in one round-trip.
//
// Up to window stages are open at a site at once, so a message that
// arrives while a stage is deciding is proposed in the next stage and does
// not wait that stage out — as long as the open proposals name fewer than
// window messages; a site whose open stages already carry a batch opens the
// next one when a decision comes in, with everything that has arrived by
// then. Decisions are processed strictly in
// stage order, and every proposal is cumulative — the whole undecided
// list, not what the open stages left out — so a message two stages
// decide takes its position from the earlier one and is skipped by the
// later, the same at every site (DESIGN.md §6 "Ordering stages").
//
// Properties (under a majority of correct sites and ◇S):
//
//	Termination      — reliable data dissemination puts every message into
//	                   every site's proposals until some decision, which
//	                   must then contain it, is reached.
//	Global Agreement — consensus decisions are identical everywhere and
//	                   stages are processed in stage order.
//	Local Agreement  — every Opt-delivered message enters the undecided
//	                   list and is eventually decided.
//	Global Order     — TO events follow the concatenation of stage
//	                   decisions, the same at all sites.
//	Local Order      — a TO event is withheld until the message body has
//	                   arrived and been Opt-delivered.
type Optimistic struct {
	ep   transport.Endpoint
	cons *consensus.Engine
	out  *queue.Q[Event]

	mu      sync.Mutex
	nextSeq uint64
	started bool
	stats   Stats

	// closed is set by Stop and read by the engine goroutine after every
	// batch of events, so a stop overtakes most of what is queued.
	closed atomic.Bool
	done   chan struct{}

	// Engine-goroutine state (no locking needed).
	//
	// A message is known here in exactly one of three places. From first
	// sight — its body or a decision naming it, whichever comes first — to
	// TO-release it has a slot in live; from TO-release on it is a number
	// in its origin's delivered set and, for the last ring.cap definitive
	// positions, an entry in ring. Nothing else is kept per message.
	live      map[MsgID]*slot
	free      []*slot // released slots, reused before allocating
	delivered deliveredSets
	undecided []*slot // Opt-delivered, not yet decided: the next proposal
	// pendingTO[toHead:] is decided and not yet TO-released, in definitive
	// order.
	pendingTO []*slot
	toHead    int
	// The open stages are [nextProcess, stage): proposed here, decision not
	// yet processed. props holds this site's proposal for each, at stage
	// mod window. undecided[:proposed] is what the newest of them named —
	// every proposal names the whole list, so that is every message in any
	// open proposal — and undecided[proposed:] is what the next stage is
	// opened for.
	stage       uint64 // next stage to propose
	nextProcess uint64 // next stage decision to process
	props       [window][]MsgID
	proposed    int
	open        atomic.Int32 // stage - nextProcess, for the gauge
	decisionBuf map[uint64][]MsgID
	// lastDecideReq rate-limits gap-triggered decision catch-up
	// broadcasts (see onDecision).
	lastDecideReq time.Time
	// lastBodyReq rate-limits body retransmission requests the same way;
	// retryDue says a timer is set to post a retryEvent when the next one
	// is due. See requestMissingBodies.
	lastBodyReq time.Time
	retryDue    bool

	// Definitive-history retention (recovery/rejoin support): every
	// decided message is assigned the next global definitive position and
	// retained — ID, position, and body once available — so this site can
	// serve a rejoining replica the deliveries it missed since a peer
	// checkpoint, and retransmit bodies on request. Bounded to the ring's
	// cap (WithDefLogCap; rejoin fails loudly when asked for history the
	// ring has overwritten).
	defSeq uint64 // last assigned definitive position
	ring   defRing
	join   *JoinState
	// conservative: Opt is withheld until TO (WithConservativeDelivery).
	conservative bool

	// Optimism telemetry (engine goroutine). Each Opt delivery is
	// assigned a local optimistic index, and each body is timestamped on
	// arrival when there is a metrics scope to report to; at TO release
	// the index order is compared against the definitive order (an
	// inversion is a reorder — the optimistic prediction was wrong) and
	// the opt→def window, body in hand to TO release, is observed: the
	// ordering latency D under either delivery policy.
	scope     *metrics.Scope
	optSeq    uint64 // next optimistic delivery index
	maxTOOpt  uint64 // highest optimistic index already TO-released
	anyTO     bool
	reorders  *metrics.Counter
	optDefLat *metrics.Histogram
}

// window is how many stages a site keeps open at once, and how many
// messages its open proposals may name before it stops opening stages
// beside them (maybePropose). It is a constant and not a setting: 4 is
// where wan_jitter's commit latency stops falling, and a site with four
// messages waiting on the stages in flight is batching (DESIGN.md §6
// "Ordering stages" has the tried-and-dropped table).
const window = 4

// The engine goroutine waits on one thing, the reception queue of
// StreamData, and whatever else it must react to is posted there
// (transport.Endpoint.Post): a *consensus.Decision by the consensus
// engine, a defLogQuery by DefinitiveLog, and these. Their types are
// unexported, so none can arrive from the network.
type (
	// retryEvent is the body-retry timer firing.
	retryEvent struct{}
	// dumpReq is Dump: where to send the reply.
	dumpReq chan string
	// wakeEvent carries nothing: Stop posts it so that an idle engine
	// looks at the closed flag.
	wakeEvent struct{}
)

// maxFreeSlots bounds the slots kept for reuse: what a site that fell
// behind needed while it caught up is not held on to afterwards.
const maxFreeSlots = 1 << 12

// slot is everything the engine holds for one message between first sight
// and TO-release.
type slot struct {
	id      MsgID
	payload any
	hasBody bool      // body received and Opt-delivered
	decided bool      // a stage decision named it
	defSeq  uint64    // its definitive position, once decided
	optIdx  uint64    // local optimistic delivery index
	optAt   time.Time // Opt-delivery time; zero without a metrics scope
}

// JoinState primes a fresh engine to rejoin a running group (see
// Cluster.RestartSite): skip the consensus stages already processed
// elsewhere, replay the definitive backlog a peer served, and resume
// this origin's broadcast numbering past everything the group has seen.
type JoinState struct {
	// StartStage is the first consensus stage to process; decisions of
	// earlier stages are covered by Backlog.
	StartStage uint64
	// ResumeSeq is the last broadcast sequence number of this origin the
	// group may have seen; new broadcasts number from ResumeSeq+1 so
	// message IDs stay unique across the crash.
	ResumeSeq uint64
	// Backlog is the definitive history to pre-deliver at Start, in
	// ascending Seq order (the gap between the state-transfer checkpoint
	// and StartStage). Entries without bodies are requested from peers.
	Backlog []DefEntry
	// Delivered is what the donor had TO-released, or decided below the
	// backlog, when it captured Backlog: the messages this engine must
	// never deliver, whatever the network replays to it. A body in these
	// sets is dropped on arrival unless a Backlog entry is waiting for it.
	Delivered []SeqRange
}

// Option configures an Optimistic engine.
type Option func(*Optimistic)

// WithJoin makes the engine start in rejoin mode. Broadcast numbers from
// js.ResumeSeq+1 at once: a broadcast that runs before the engine has
// replayed the backlog must not reuse an ID the backlog holds.
func WithJoin(js JoinState) Option {
	return func(o *Optimistic) {
		o.join = &js
		o.nextSeq = js.ResumeSeq
	}
}

// WithDefLogCap bounds the retained definitive history (default 64Ki
// entries). Rejoin requests below the retained window fail.
func WithDefLogCap(n int) Option {
	return func(o *Optimistic) { o.ring.cap = uint64(max(n, 0)) }
}

// WithDefBase presets the definitive position counter: after a cold
// restart from durable state the first new decision is assigned base+1,
// keeping engine positions aligned with the replica's recovered commit
// index.
func WithDefBase(base uint64) Option {
	return func(o *Optimistic) {
		if base > o.defSeq {
			o.defSeq = base
		}
	}
}

// WithMetrics registers the engine's optimism telemetry under the
// scope's labels: reorder count, opt→def latency, stage counters and
// the spontaneous-order agreement ratio.
func WithMetrics(s *metrics.Scope) Option {
	return func(o *Optimistic) { o.scope = s }
}

// WithConservativeDelivery makes the engine the classic atomic broadcast
// the paper compares against (§4): same dissemination, stages and order,
// but a message's Opt event is withheld until its TO-release and emitted
// immediately before its TO event, so the layer above starts executing
// only once the order is known and never sees a tentative order.
func WithConservativeDelivery() Option {
	return func(o *Optimistic) { o.conservative = true }
}

var _ Broadcaster = (*Optimistic)(nil)

// defaultDefLogCap bounds the retained definitive history.
const defaultDefLogCap = 64 << 10

// NewOptimistic creates an OPT-ABcast engine bound to ep and using cons
// for definitive ordering. The consensus engine must be dedicated to this
// broadcaster (instance numbers are the stage numbers) and must be started
// and stopped by the caller; its decisions are taken over here, not in
// Start: cons may be running already, and can decide a stage from its
// peers' proposal and acks before this engine's goroutine has run once.
func NewOptimistic(ep transport.Endpoint, cons *consensus.Engine, opts ...Option) *Optimistic {
	cons.SetSink(func(d *consensus.Decision) { ep.Post(StreamData, d) })
	o := &Optimistic{
		ep:          ep,
		cons:        cons,
		out:         queue.New[Event](),
		done:        make(chan struct{}),
		live:        make(map[MsgID]*slot),
		delivered:   make(deliveredSets),
		stage:       1,
		nextProcess: 1,
		decisionBuf: make(map[uint64][]MsgID),
		ring:        defRing{cap: defaultDefLogCap},
	}
	for _, opt := range opts {
		opt(o)
	}
	o.reorders = o.scope.Counter("otp_reorder_total")
	o.optDefLat = o.scope.Histogram("otp_opt_def_latency_seconds")
	// Stage counters and the agreement ratio pull from Stats() at
	// snapshot time: the hot path already maintains them under o.mu.
	//otplint:allow metricnames pull-style counter: the Func surfaces the monotonic Stats().Stages total, so _total states its semantics
	o.scope.Func("abcast_stage_total", func() float64 {
		return float64(o.Stats().Stages)
	})
	//otplint:allow metricnames pull-style counter over monotonic Stats().FastStages
	o.scope.Func("abcast_fast_stage_total", func() float64 {
		return float64(o.Stats().FastStages)
	})
	o.scope.Func("abcast_agreement_ratio", func() float64 {
		st := o.Stats()
		if st.Stages == 0 {
			return 1
		}
		return float64(st.FastStages) / float64(st.Stages)
	})
	o.scope.Func("abcast_stages_in_flight", func() float64 {
		return float64(o.open.Load())
	})
	return o
}

// Start implements Broadcaster.
func (o *Optimistic) Start() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return nil
	}
	o.started = true
	go o.run()
	return nil
}

// Stop implements Broadcaster.
func (o *Optimistic) Stop() error {
	if o.closed.Swap(true) {
		return nil
	}
	o.ep.Post(StreamData, wakeEvent{})
	<-o.done
	o.out.Close()
	return nil
}

// Broadcast implements Broadcaster.
func (o *Optimistic) Broadcast(payload any) (MsgID, error) {
	if o.closed.Load() {
		return MsgID{}, transport.ErrClosed
	}
	o.mu.Lock()
	o.nextSeq++
	id := MsgID{Origin: o.ep.ID(), Seq: o.nextSeq}
	o.stats.Broadcasts++
	o.mu.Unlock()
	if err := o.ep.Broadcast(StreamData, DataMsg{ID: id, Payload: payload}); err != nil {
		return MsgID{}, err
	}
	return id, nil
}

// Deliveries implements Broadcaster.
func (o *Optimistic) Deliveries() <-chan Event { return o.out.Chan() }

// Stats returns a snapshot of the engine counters.
func (o *Optimistic) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// run is the engine goroutine: one queue, taken in arrival order. What
// has already arrived is handled before a stage is opened, so the stage
// proposes all of it — bounded by what was queued when we looked: a sender
// that outruns this loop must not keep it from proposing at all.
func (o *Optimistic) run() {
	defer close(o.done)
	in := o.ep.Subscribe(StreamData)
	if o.join != nil {
		o.applyJoin()
	}
	for env := range in {
		o.onEnvelope(env)
		for n := len(in); n > 0; n-- {
			var ok bool
			if env, ok = <-in; !ok {
				return
			}
			o.onEnvelope(env)
		}
		// After the batch, not before it: Stop's wake-up may have been
		// anywhere in it.
		if o.closed.Load() {
			return
		}
		o.maybePropose()
	}
}

func (o *Optimistic) onEnvelope(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case DataMsg:
		o.onData(m)
	case *consensus.Decision:
		o.onDecision(m)
	case BodyReq:
		o.onBodyReq(env.From, m)
	case retryEvent:
		o.retryDue = false
		o.requestMissingBodies()
	case defLogQuery:
		m.reply <- o.serveDefLog(m)
	case dumpReq:
		m <- o.dumpLocked()
	}
}

// applyJoin replays the peer-served backlog: every entry is already
// definitively ordered, so it is marked decided, Opt-delivered (when its
// body is known) and queued for TO release in seq order; missing bodies
// are requested from the group. The donor's delivered sets come first:
// they are what keeps a message the network replays from being delivered
// here a second time (onData). Runs in the engine goroutine before any
// live traffic is processed, so the replica sees the backlog exactly as
// if it had been delivered normally.
func (o *Optimistic) applyJoin() {
	j := o.join
	if j.StartStage > o.stage {
		o.stage = j.StartStage
		o.nextProcess = j.StartStage
	}
	for _, r := range j.Delivered {
		o.delivered.of(r.Origin).addRun(r.Lo, r.Hi)
	}
	for _, ent := range j.Backlog {
		sl := o.newSlot(ent.ID)
		if ent.Seq > o.defSeq {
			o.defSeq = ent.Seq
		}
		o.decide(sl, ent.Seq)
		if ent.HasBody {
			o.optDeliver(sl, ent.Payload)
		}
	}
	o.flushPendingTO()
	o.requestMissingBodies()
}

// newSlot puts a message into the live table.
func (o *Optimistic) newSlot(id MsgID) *slot {
	var sl *slot
	if n := len(o.free); n > 0 {
		sl, o.free = o.free[n-1], o.free[:n-1]
	} else {
		sl = new(slot)
	}
	sl.id = id
	o.live[id] = sl
	return sl
}

// optDeliver records the body of sl's message, completes its retained
// entry if a decision came first, and emits the Opt event — unless
// delivery is conservative: then flushPendingTO emits it.
func (o *Optimistic) optDeliver(sl *slot, payload any) {
	sl.payload, sl.hasBody = payload, true
	if o.scope != nil {
		sl.optAt = time.Now()
	}
	if sl.decided {
		if ent := o.ring.at(sl.defSeq); ent != nil {
			ent.Payload, ent.HasBody = payload, true
		}
	}
	if !o.conservative {
		o.emitOpt(sl)
	}
}

// emitOpt gives sl's message the next optimistic index and Opt-delivers it.
func (o *Optimistic) emitOpt(sl *slot) {
	o.optSeq++
	sl.optIdx = o.optSeq
	o.emit(Event{Kind: Opt, ID: sl.id, Payload: sl.payload})
}

// decide gives sl's message definitive position seq: it is retained in the
// ring and queued for TO release.
func (o *Optimistic) decide(sl *slot, seq uint64) {
	sl.decided, sl.defSeq = true, seq
	o.ring.put(DefEntry{Seq: seq, ID: sl.id, Payload: sl.payload, HasBody: sl.hasBody})
	o.pendingTO = append(o.pendingTO, sl)
}

// requestMissingBodies asks the group to retransmit bodies the pending
// definitive queue is blocked on. Rejoined sites hit this for backlog
// entries served without bodies, but a site that never crashed needs it
// too: a partition can swallow the original dissemination of a body
// whose decision this site later catches up on.
//
// Usually a body is missing only because the data stream runs a little
// behind the decision stream, and asking again at every stage makes it
// worse: every peer answers every request with every body, on the very
// stream that is behind. So at most one request goes out per
// decideReqInterval, naming only the ids still missing, and while any is
// missing a timer posts the engine an event that brings it back here —
// which also asks a peer again that itself lacked the body the first time.
func (o *Optimistic) requestMissingBodies() {
	var missing []MsgID
	for _, sl := range o.pendingTO[o.toHead:] {
		if !sl.hasBody {
			missing = append(missing, sl.id)
		}
	}
	if len(missing) == 0 {
		return
	}
	wait := decideReqInterval - time.Since(o.lastBodyReq)
	if wait <= 0 {
		o.lastBodyReq = time.Now()
		_ = o.ep.Broadcast(StreamData, BodyReq{IDs: missing})
		wait = decideReqInterval
	}
	if !o.retryDue {
		o.retryDue = true
		time.AfterFunc(wait, func() { o.ep.Post(StreamData, retryEvent{}) })
	}
}

// onBodyReq retransmits bodies to a catching-up peer: from the live table
// while the message is still on its way to TO release here, from the ring
// afterwards. The ring is ordered by definitive position, not by id, so
// the released ones are found in one walk from the newest entry back —
// which ends as soon as all are found, and a request is for what was
// decided last. An id this site never released, or released more than
// ring.cap positions ago, is not looked for at all.
func (o *Optimistic) onBodyReq(from transport.NodeID, m BodyReq) {
	var want map[MsgID]struct{}
	for _, id := range m.IDs {
		if sl := o.live[id]; sl != nil {
			if sl.hasBody {
				_ = o.ep.Send(from, StreamData, DataMsg{ID: id, Payload: sl.payload})
			}
		} else if o.delivered.has(id) {
			if want == nil {
				want = make(map[MsgID]struct{})
			}
			want[id] = struct{}{}
		}
	}
	for seq := o.ring.hi; len(want) > 0 && seq >= o.ring.lo && seq > 0; seq-- {
		ent := o.ring.at(seq)
		if _, ok := want[ent.ID]; ok {
			delete(want, ent.ID)
			if ent.HasBody {
				_ = o.ep.Send(from, StreamData, DataMsg{ID: ent.ID, Payload: ent.Payload})
			}
		}
	}
}

// onData Opt-delivers a newly received message and lists it for
// definitive ordering; run opens the stage. A copy of a message this site
// has already TO-released — a transport retransmission, the second
// peer's answer to a BodyReq, or everything the survivors' links queued
// for a site that was down and has since joined from a checkpoint — finds
// no slot but its number in the delivered set, and is dropped.
func (o *Optimistic) onData(m DataMsg) {
	sl := o.live[m.ID]
	if sl == nil {
		if o.delivered.has(m.ID) {
			return
		}
		sl = o.newSlot(m.ID)
	} else if sl.hasBody {
		return // duplicate (transport retransmission)
	}
	o.optDeliver(sl, m.Payload)
	if sl.decided {
		// Already definitively ordered (another site's proposal won the
		// stage before our copy arrived): the TO event may now be
		// releasable.
		o.flushPendingTO()
		return
	}
	o.undecided = append(o.undecided, sl)
}

// decideReqInterval rate-limits gap-triggered catch-up requests, for
// decisions and for bodies: while the gap persists, at most one broadcast
// of either kind per interval.
const decideReqInterval = 200 * time.Millisecond

// onDecision buffers out-of-order stage decisions and processes them in
// stage order. With stages overlapping a decision may overtake the one
// before it by a moment; a buffered decision above a hole that stays
// means this site missed an earlier stage's proposal or acks (a partition
// swallowed them). That hole never fills on its own, and the two cannot
// be told apart here, so the missing range is re-requested from the group
// either way — at most once per decideReqInterval, and answered with the
// few decisions above the hole.
func (o *Optimistic) onDecision(d *consensus.Decision) {
	ids, ok := d.Value.([]MsgID)
	if !ok {
		// Consensus validity guarantees the decision is some site's
		// proposal, which is always []MsgID. Anything else means the
		// ordering layer is broken; dropping it silently would wedge
		// every later stage.
		panic(fmt.Sprintf("abcast: stage %d decided non-proposal value %T", d.Instance, d.Value))
	}
	if d.Instance < o.nextProcess {
		return // retransmission of an already-processed stage
	}
	if d.Instance == o.nextProcess {
		// This stage and every buffered one it unblocks, in stage order; run
		// opens the next stage once, for what all of them left undecided and
		// whatever arrived behind them.
		for ok := true; ok; ids, ok = o.decisionBuf[o.nextProcess] {
			delete(o.decisionBuf, o.nextProcess)
			o.processStage(ids)
		}
		o.requestMissingBodies()
	} else {
		o.decisionBuf[d.Instance] = ids
	}
	if len(o.decisionBuf) > 0 && time.Since(o.lastDecideReq) >= decideReqInterval {
		o.lastDecideReq = time.Now()
		o.cons.RequestDecisions(o.nextProcess)
	}
}

// processStage applies the decision of stage nextProcess. An id an earlier
// stage decided — proposals are cumulative, so with stages overlapping
// most decisions begin with some — keeps its position and is skipped; that
// is decided by what has been processed so far, which is the same at
// every site. An id the decision left out of this site's proposal stays
// undecided and is in the next proposal.
func (o *Optimistic) processStage(ids []MsgID) {
	// The stage is graded as it is applied: prop walks this site's
	// proposal (none when it never opened the stage) in step with the ids
	// the decision newly orders, passing over what earlier stages decided,
	// and the stage was fast when both name the same messages in the same
	// order.
	prop := o.props[o.nextProcess%window]
	o.props[o.nextProcess%window] = nil
	fast := o.nextProcess < o.stage

	fresh := false
	for _, id := range ids {
		sl := o.live[id]
		if sl == nil {
			if o.delivered.has(id) {
				continue // decided by an earlier stage, and TO-released
			}
			sl = o.newSlot(id) // decided before its body arrived
		} else if sl.decided {
			continue // decided by an earlier stage
		}
		fresh = true
		if fast {
			for len(prop) > 0 && prop[0] != id && o.decidedEarlier(prop[0]) {
				prop = prop[1:]
			}
			if fast = len(prop) > 0 && prop[0] == id; fast {
				prop = prop[1:]
			}
		}
		// Assign the message its global definitive position and retain it
		// (every site processes the same stage decisions in the same
		// order, so positions agree everywhere).
		o.defSeq++
		o.decide(sl, o.defSeq)
	}
	for ; fast && len(prop) > 0; prop = prop[1:] {
		fast = o.decidedEarlier(prop[0])
	}

	o.nextProcess++
	o.stage = max(o.stage, o.nextProcess)
	o.open.Store(int32(o.stage - o.nextProcess))
	o.mu.Lock()
	o.stats.Stages++
	if fast {
		o.stats.FastStages++
	}
	o.mu.Unlock()

	// Drop decided messages from our own tentative list. What is left of
	// undecided[:proposed] is still in the newest open proposal; with no
	// stage open it is in none, and is proposed again.
	if fresh {
		kept := o.undecided[:0]
		named := 0
		for i, sl := range o.undecided {
			if !sl.decided {
				kept = append(kept, sl)
				if i < o.proposed {
					named++
				}
			}
		}
		clear(o.undecided[len(kept):])
		o.undecided, o.proposed = kept, named
	}
	if o.stage == o.nextProcess {
		o.proposed = 0
	}
	o.flushPendingTO()
}

// decidedEarlier reports whether id, which this site proposed, was decided
// before the stage being applied: its slot says so, or it has none left
// because it was TO-released. Only ids of the current stage that the walk
// in processStage has already passed are decided otherwise.
func (o *Optimistic) decidedEarlier(id MsgID) bool {
	sl := o.live[id]
	return sl == nil || sl.decided
}

// flushPendingTO emits TO events for the decided prefix whose bodies have
// arrived. Definitive order is never violated: a missing body blocks the
// tail (Global Order), and bodies are Opt-delivered first (Local Order).
// A released message leaves the live table for its origin's delivered
// set, and its slot is reused.
//
// This is also where the optimistic prediction is graded: a message
// TO-released with an optimistic index below one already released means
// the definitive order inverted the optimistic order — a reorder, the
// event the paper's OPT layer bets against. The opt→def window (Opt
// delivery to TO release) is observed alongside.
func (o *Optimistic) flushPendingTO() {
	for o.toHead < len(o.pendingTO) && o.pendingTO[o.toHead].hasBody {
		sl := o.pendingTO[o.toHead]
		o.pendingTO[o.toHead] = nil
		o.toHead++
		if o.conservative {
			o.emitOpt(sl)
		}
		if o.anyTO && sl.optIdx < o.maxTOOpt {
			o.reorders.Inc()
			o.mu.Lock()
			o.stats.Reorders++
			o.mu.Unlock()
		}
		o.maxTOOpt = max(o.maxTOOpt, sl.optIdx)
		o.anyTO = true
		if !sl.optAt.IsZero() {
			o.optDefLat.Observe(time.Since(sl.optAt))
		}
		id := sl.id
		delete(o.live, id)
		o.delivered.add(id)
		*sl = slot{}
		if len(o.free) < maxFreeSlots {
			o.free = append(o.free, sl)
		}
		o.emit(Event{Kind: TO, ID: id})
	}
	// Reuse the queue's array: from the start once it is empty, and by
	// moving the rest down once the released prefix is the larger half —
	// under load some message is always waiting, and the array must not
	// grow for that.
	if rest := len(o.pendingTO) - o.toHead; rest <= o.toHead {
		copy(o.pendingTO, o.pendingTO[o.toHead:])
		clear(o.pendingTO[rest:])
		o.pendingTO, o.toHead = o.pendingTO[:rest], 0
	}
}

// maybePropose opens the next stage, at once, when some Opt-delivered
// message is in none of the open proposals, fewer than window stages are
// open and those name fewer than window messages.
//
// The second bound tells sparse traffic from a saturated site without
// reading a clock: what waits on the open stages is arrival rate × ordering
// latency. Few messages, and the latency is message delays: a stage beside
// the open ones saves the newcomer a stage's wait. A batch, and it is
// processor time: the stage that opens at the next decision carries all
// that arrives until then, where a stage per arrival spends a stage's ten
// messages on fewer ids, how many fewer depending on how the goroutines
// happen to interleave. (With no stage open, proposed is 0.)
//
// The proposal is the whole undecided list in tentative order, not only what
// is new: the consensus layer's round-0 coordinator proposes the first
// value it holds, which may be any site's, so two overlapping stages can
// decide lists of different sites. Were this site to put [a b] into one
// stage and [c] into the next, and the coordinator's own first stage were
// [a], the decisions [a] and [c] would order c before b against every
// site's reception order. With [a b c] in the second stage whichever lists
// win, b is never overtaken by c.
func (o *Optimistic) maybePropose() {
	if len(o.undecided) == o.proposed || o.stage-o.nextProcess >= window || o.proposed >= window {
		return
	}
	proposal := make([]MsgID, len(o.undecided))
	for i, sl := range o.undecided {
		proposal[i] = sl.id
	}
	o.props[o.stage%window] = proposal
	o.proposed = len(proposal)
	_ = o.cons.Propose(o.stage, proposal)
	o.stage++
	o.open.Store(int32(o.stage - o.nextProcess))
}

func (o *Optimistic) emit(ev Event) {
	o.mu.Lock()
	switch ev.Kind {
	case Opt:
		o.stats.OptDelivered++
	case TO:
		o.stats.TODelivered++
	}
	o.mu.Unlock()
	o.out.Push(ev)
}

// defLogQuery is a DefinitiveLog request served by the engine goroutine.
type defLogQuery struct {
	from   uint64
	origin transport.NodeID
	reply  chan defLogReply
}

type defLogReply struct {
	log DefLog
	err error
}

// DefLog is one consistent cut of a site's ordering state, what a
// rejoining engine is primed with (JoinState): the definitive history
// from a position on, the stage whose decision comes next, and which
// messages the site will never deliver again.
type DefLog struct {
	// Entries is the definitive history from the requested position
	// through the last processed stage: exactly the decisions of every
	// stage below NextStage.
	Entries []DefEntry
	// NextStage is the stage a rejoining engine resumes at.
	NextStage uint64
	// ResumeSeq is the largest broadcast sequence number this site has
	// seen from the requested origin, so the rejoiner can renumber past
	// its own pre-crash messages.
	ResumeSeq uint64
	// Delivered holds every message TO-released here, and every message
	// decided below the requested position whose release still waits for
	// its body: together with Entries, everything decided so far.
	Delivered []SeqRange
}

// ErrHistoryPruned is returned by DefinitiveLog when the requested range
// reaches below the retained definitive history.
var ErrHistoryPruned = fmt.Errorf("abcast: definitive history pruned past request")

// DefinitiveLog returns this site's ordering state from definitive
// position `from` (inclusive) on, for a rejoiner whose broadcasts carry
// `origin`. The cut is captured atomically in the engine goroutine.
func (o *Optimistic) DefinitiveLog(from uint64, origin transport.NodeID) (DefLog, error) {
	reply := make(chan defLogReply, 1)
	o.ep.Post(StreamData, defLogQuery{from: from, origin: origin, reply: reply})
	select {
	case r := <-reply:
		return r.log, r.err
	case <-o.done:
		return DefLog{}, transport.ErrClosed
	}
}

// serveDefLog runs in the engine goroutine.
func (o *Optimistic) serveDefLog(q defLogQuery) defLogReply {
	if q.from > o.defSeq+1 {
		// The requester is ahead of this site: serving a backlog from
		// here would make it re-enter consensus with misaligned
		// definitive positions. Refuse, so a state-transfer client fails
		// over to a more advanced donor.
		return defLogReply{err: fmt.Errorf("abcast: definitive log requested from %d but this site is at %d (donor behind joiner)",
			q.from, o.defSeq)}
	}
	// Oldest position this site can vouch for: the head of the retained
	// history, or the position right after the counter when nothing is
	// retained (fresh or fully pruned).
	oldest := o.defSeq + 1
	if o.ring.len() > 0 {
		oldest = o.ring.lo
	}
	if q.from < oldest {
		return defLogReply{err: fmt.Errorf("%w: want from %d, oldest retained %d", ErrHistoryPruned, q.from, oldest)}
	}
	log := DefLog{NextStage: o.nextProcess}
	if o.ring.len() > 0 && q.from <= o.ring.hi {
		log.Entries = make([]DefEntry, 0, o.ring.hi-q.from+1)
		for seq := q.from; seq <= o.ring.hi; seq++ {
			log.Entries = append(log.Entries, *o.ring.at(seq))
		}
	}
	// Largest sequence number seen from origin: released messages are in
	// its delivered set, everything else this site knows of is live.
	if s := o.delivered[q.origin]; s != nil {
		log.ResumeSeq = s.max()
	}
	for id := range o.live {
		if id.Origin == q.origin && id.Seq > log.ResumeSeq {
			log.ResumeSeq = id.Seq
		}
	}
	// What the joiner must treat as delivered: what is, plus what is
	// decided below its first entry and only waits for a body here — the
	// joiner holds that message in its own state, and it is in nobody's
	// backlog.
	log.Delivered = o.delivered.ranges()
	for _, sl := range o.pendingTO[o.toHead:] {
		if sl.defSeq < q.from {
			log.Delivered = append(log.Delivered, SeqRange{Origin: sl.id.Origin, Lo: sl.id.Seq, Hi: sl.id.Seq})
		}
	}
	return defLogReply{log: log}
}

// Dump returns a snapshot of the engine's ordering state, for debugging.
// It is served by the engine goroutine.
func (o *Optimistic) Dump() string {
	reply := make(dumpReq, 1)
	o.ep.Post(StreamData, reply)
	select {
	case s := <-reply:
		return s
	case <-o.done:
		return "engine stopped"
	}
}

func (o *Optimistic) dumpLocked() string {
	ids := func(sls []*slot) []MsgID {
		out := make([]MsgID, len(sls))
		for i, sl := range sls {
			out[i] = sl.id
		}
		return out
	}
	open := ""
	for st := o.nextProcess; st < o.stage; st++ {
		open += fmt.Sprintf(" %d:%v", st, o.props[st%window])
	}
	return fmt.Sprintf("abcast(%v): stage=%d nextProcess=%d open=[%s] undecided=%v (%d proposed) pendingTO=%v bufDecisions=%d",
		o.ep.ID(), o.stage, o.nextProcess, strings.TrimSpace(open), ids(o.undecided), o.proposed, ids(o.pendingTO[o.toHead:]), len(o.decisionBuf))
}
