package abcast

import (
	"fmt"
	"sync"
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
	closed  bool
	stats   Stats

	stop   chan struct{}
	done   chan struct{}
	dumpCh chan chan string
	defCh  chan defLogQuery

	// Engine-goroutine state (no locking needed).
	payloads    map[MsgID]any
	optDone     map[MsgID]bool
	decided     map[MsgID]bool
	undecided   []MsgID
	pendingTO   []MsgID
	stage       uint64 // next stage to propose
	inFlight    bool
	nextProcess uint64 // next stage decision to process
	decisionBuf map[uint64][]MsgID
	// lastDecideReq rate-limits gap-triggered decision catch-up
	// broadcasts (see onDecision).
	lastDecideReq time.Time
	// lastBodyReq rate-limits body retransmission requests the same way;
	// bodyRetry fires when the next one is due (nil while nothing is
	// missing). See requestMissingBodies.
	lastBodyReq time.Time
	bodyRetry   <-chan time.Time
	lastProp    []MsgID // this site's proposal for the in-flight stage

	// Definitive-history retention (recovery/rejoin support): every
	// decided message is assigned the next global definitive position and
	// retained — ID, position, and body once available — so this site can
	// serve a rejoining replica the deliveries it missed since a peer
	// checkpoint, and retransmit bodies on request. Bounded to defLogCap
	// entries (rejoin fails loudly when asked for pruned history).
	defSeq    uint64 // last assigned definitive position
	defLog    []*DefEntry
	defByID   map[MsgID]*DefEntry
	defLogCap int
	join      *JoinState

	// Optimism telemetry (engine goroutine). Each Opt delivery is
	// assigned a local optimistic index and timestamped; at TO release
	// the index order is compared against the definitive order (an
	// inversion is a reorder — the optimistic prediction was wrong) and
	// the opt→def window is observed. Instruments are inert without
	// WithMetrics.
	scope     *metrics.Scope
	optSeq    uint64 // next optimistic delivery index
	optIdxOf  map[MsgID]uint64
	optAtOf   map[MsgID]time.Time
	maxTOOpt  uint64 // highest optimistic index already TO-released
	anyTO     bool
	reorders  *metrics.Counter
	optDefLat *metrics.Histogram
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
}

// Option configures an Optimistic engine.
type Option func(*Optimistic)

// WithJoin makes the engine start in rejoin mode.
func WithJoin(js JoinState) Option {
	return func(o *Optimistic) { o.join = &js }
}

// WithDefLogCap bounds the retained definitive history (default 64Ki
// entries). Rejoin requests below the retained window fail.
func WithDefLogCap(n int) Option {
	return func(o *Optimistic) { o.defLogCap = n }
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

var _ Broadcaster = (*Optimistic)(nil)

// defaultDefLogCap bounds the retained definitive history.
const defaultDefLogCap = 64 << 10

// NewOptimistic creates an OPT-ABcast engine bound to ep and using cons
// for definitive ordering. The consensus engine must be dedicated to this
// broadcaster (instance numbers are the stage numbers) and must be started
// and stopped by the caller.
func NewOptimistic(ep transport.Endpoint, cons *consensus.Engine, opts ...Option) *Optimistic {
	o := &Optimistic{
		ep:          ep,
		cons:        cons,
		out:         queue.New[Event](),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		dumpCh:      make(chan chan string),
		defCh:       make(chan defLogQuery),
		payloads:    make(map[MsgID]any),
		optDone:     make(map[MsgID]bool),
		decided:     make(map[MsgID]bool),
		stage:       1,
		nextProcess: 1,
		decisionBuf: make(map[uint64][]MsgID),
		defByID:     make(map[MsgID]*DefEntry),
		defLogCap:   defaultDefLogCap,
		optIdxOf:    make(map[MsgID]uint64),
		optAtOf:     make(map[MsgID]time.Time),
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
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	o.mu.Unlock()
	close(o.stop)
	<-o.done
	o.out.Close()
	return nil
}

// Broadcast implements Broadcaster.
func (o *Optimistic) Broadcast(payload any) (MsgID, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return MsgID{}, transport.ErrClosed
	}
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

func (o *Optimistic) run() {
	defer close(o.done)
	data := o.ep.Subscribe(StreamData)
	decisions := o.cons.Decisions()
	if o.join != nil {
		o.applyJoin()
	}
	for {
		select {
		case env, ok := <-data:
			if !ok {
				return
			}
			o.onEnvelope(env)
			// Take what else has already arrived before opening a stage,
			// so the stage proposes all of it. Bounded by what was buffered
			// when we looked: a sender that outruns this loop must not keep
			// it from the decisions.
			for n := len(data); n > 0; n-- {
				if env, ok = <-data; !ok {
					return
				}
				o.onEnvelope(env)
			}
			o.maybePropose()
		case d, ok := <-decisions:
			if !ok {
				return
			}
			o.onDecision(d)
		case <-o.bodyRetry:
			o.bodyRetry = nil
			o.requestMissingBodies()
		case q := <-o.defCh:
			q.reply <- o.serveDefLog(q)
		case reply := <-o.dumpCh:
			reply <- o.dumpLocked()
		case <-o.stop:
			return
		}
	}
}

func (o *Optimistic) onEnvelope(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case DataMsg:
		o.onData(m)
	case BodyReq:
		o.onBodyReq(env.From, m)
	}
}

// applyJoin replays the peer-served backlog: every entry is already
// definitively ordered, so it is marked decided, Opt-delivered (when its
// body is known) and queued for TO release in seq order; missing bodies
// are requested from the group. Runs in the engine goroutine before any
// live traffic is processed, so the replica sees the backlog exactly as
// if it had been delivered normally.
func (o *Optimistic) applyJoin() {
	j := o.join
	if j.StartStage > o.stage {
		o.stage = j.StartStage
		o.nextProcess = j.StartStage
	}
	o.mu.Lock()
	if j.ResumeSeq > o.nextSeq {
		o.nextSeq = j.ResumeSeq
	}
	o.mu.Unlock()
	for _, src := range j.Backlog {
		ent := &DefEntry{Seq: src.Seq, ID: src.ID, Payload: src.Payload, HasBody: src.HasBody}
		o.decided[ent.ID] = true
		if ent.Seq > o.defSeq {
			o.defSeq = ent.Seq
		}
		o.retain(ent)
		if ent.HasBody {
			o.optDone[ent.ID] = true
			o.noteOpt(ent.ID)
			o.payloads[ent.ID] = ent.Payload
			o.emit(Event{Kind: Opt, ID: ent.ID, Payload: ent.Payload})
		}
		o.pendingTO = append(o.pendingTO, ent.ID)
	}
	o.flushPendingTO()
	o.requestMissingBodies()
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
// missing a timer brings the engine back here — which also asks a peer
// again that itself lacked the body the first time.
func (o *Optimistic) requestMissingBodies() {
	var missing []MsgID
	for _, id := range o.pendingTO {
		if !o.optDone[id] {
			missing = append(missing, id)
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
	if o.bodyRetry == nil {
		o.bodyRetry = time.After(wait)
	}
}

// onBodyReq retransmits retained bodies to a catching-up peer.
func (o *Optimistic) onBodyReq(from transport.NodeID, m BodyReq) {
	for _, id := range m.IDs {
		if ent, ok := o.defByID[id]; ok && ent.HasBody {
			_ = o.ep.Send(from, StreamData, DataMsg{ID: id, Payload: ent.Payload})
			continue
		}
		if pl, ok := o.payloads[id]; ok && o.optDone[id] {
			_ = o.ep.Send(from, StreamData, DataMsg{ID: id, Payload: pl})
		}
	}
}

// retain appends one definitive entry to the bounded history.
func (o *Optimistic) retain(ent *DefEntry) {
	o.defLog = append(o.defLog, ent)
	o.defByID[ent.ID] = ent
	if len(o.defLog) > o.defLogCap {
		drop := len(o.defLog) - o.defLogCap/2 // halve, amortizing the copy
		if drop > len(o.defLog) {
			drop = len(o.defLog)
		}
		for _, old := range o.defLog[:drop] {
			delete(o.defByID, old.ID)
		}
		o.defLog = append([]*DefEntry(nil), o.defLog[drop:]...)
	}
}

// onData Opt-delivers a newly received message and lists it for
// definitive ordering; run opens the stage.
func (o *Optimistic) onData(m DataMsg) {
	if o.optDone[m.ID] {
		return // duplicate (transport retransmission)
	}
	o.optDone[m.ID] = true
	o.noteOpt(m.ID)
	o.payloads[m.ID] = m.Payload
	if ent, ok := o.defByID[m.ID]; ok && !ent.HasBody {
		// A retransmitted body for an already-decided entry: complete the
		// retained history so this site can serve it onward.
		ent.Payload = m.Payload
		ent.HasBody = true
	}
	o.emit(Event{Kind: Opt, ID: m.ID, Payload: m.Payload})

	if o.decided[m.ID] {
		// Already definitively ordered (another site's proposal won the
		// stage before our copy arrived): the TO event may now be
		// releasable.
		o.flushPendingTO()
		return
	}
	o.undecided = append(o.undecided, m.ID)
}

// decideReqInterval rate-limits gap-triggered catch-up requests, for
// decisions and for bodies: while the gap persists, at most one broadcast
// of either kind per interval.
const decideReqInterval = 200 * time.Millisecond

// onDecision buffers out-of-order stage decisions and processes them in
// stage order. A buffered decision above a hole means this site missed
// an earlier stage's proposal or acks (a partition swallowed them); the
// hole never fills on its own, so the missing range is re-requested
// from the group.
func (o *Optimistic) onDecision(d consensus.Decision) {
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
	o.decisionBuf[d.Instance] = ids
	for {
		ids, ok := o.decisionBuf[o.nextProcess]
		if !ok {
			break
		}
		delete(o.decisionBuf, o.nextProcess)
		o.processStage(o.nextProcess, ids)
		o.nextProcess++
	}
	if len(o.decisionBuf) > 0 && time.Since(o.lastDecideReq) >= decideReqInterval {
		o.lastDecideReq = time.Now()
		o.cons.RequestDecisions(o.nextProcess)
	}
}

func (o *Optimistic) processStage(stage uint64, ids []MsgID) {
	o.mu.Lock()
	o.stats.Stages++
	if stage == o.stage && sameIDs(ids, o.lastProp) {
		o.stats.FastStages++
	}
	o.mu.Unlock()

	fresh := false
	for _, id := range ids {
		if o.decided[id] {
			continue // defensive: never TO-deliver twice
		}
		o.decided[id] = true
		fresh = true
		// Assign the message its global definitive position and retain it
		// (every site processes the same stage decisions in the same
		// order, so positions agree everywhere).
		o.defSeq++
		ent := &DefEntry{Seq: o.defSeq, ID: id}
		if o.optDone[id] {
			ent.Payload = o.payloads[id]
			ent.HasBody = true
		}
		o.retain(ent)
		o.pendingTO = append(o.pendingTO, id)
	}
	// Drop decided messages from our own tentative list.
	if fresh {
		kept := o.undecided[:0]
		for _, id := range o.undecided {
			if !o.decided[id] {
				kept = append(kept, id)
			}
		}
		o.undecided = kept
	}
	o.flushPendingTO()

	if stage >= o.stage {
		o.stage = stage + 1
	}
	o.inFlight = false
	o.lastProp = nil
	o.requestMissingBodies()
	o.maybePropose()
}

// noteOpt stamps an Opt delivery with its local optimistic index and
// arrival time, the raw material of the reorder and opt→def metrics.
func (o *Optimistic) noteOpt(id MsgID) {
	o.optSeq++
	o.optIdxOf[id] = o.optSeq
	o.optAtOf[id] = time.Now()
}

// flushPendingTO emits TO events for the decided prefix whose bodies have
// arrived. Definitive order is never violated: a missing body blocks the
// tail (Global Order), and bodies are Opt-delivered first (Local Order).
//
// This is also where the optimistic prediction is graded: a message
// TO-released with an optimistic index below one already released means
// the definitive order inverted the optimistic order — a reorder, the
// event the paper's OPT layer bets against. The opt→def window (Opt
// delivery to TO release) is observed alongside.
func (o *Optimistic) flushPendingTO() {
	for len(o.pendingTO) > 0 && o.optDone[o.pendingTO[0]] {
		id := o.pendingTO[0]
		o.pendingTO = o.pendingTO[1:]
		delete(o.payloads, id)
		if idx, ok := o.optIdxOf[id]; ok {
			if o.anyTO && idx < o.maxTOOpt {
				o.reorders.Inc()
				o.mu.Lock()
				o.stats.Reorders++
				o.mu.Unlock()
			}
			if idx > o.maxTOOpt {
				o.maxTOOpt = idx
			}
			o.anyTO = true
			delete(o.optIdxOf, id)
		}
		if at, ok := o.optAtOf[id]; ok {
			o.optDefLat.Observe(time.Since(at))
			delete(o.optAtOf, id)
		}
		o.emit(Event{Kind: TO, ID: id})
	}
}

// maybePropose opens the next stage when there are unordered messages and
// no stage in flight.
func (o *Optimistic) maybePropose() {
	if o.inFlight || len(o.undecided) == 0 {
		return
	}
	proposal := make([]MsgID, len(o.undecided))
	copy(proposal, o.undecided)
	o.inFlight = true
	o.lastProp = proposal
	_ = o.cons.Propose(o.stage, proposal)
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
	entries   []DefEntry
	nextStage uint64
	resumeSeq uint64
	err       error
}

// ErrHistoryPruned is returned by DefinitiveLog when the requested range
// reaches below the retained definitive history.
var ErrHistoryPruned = fmt.Errorf("abcast: definitive history pruned past request")

// DefinitiveLog returns this site's definitive history from position
// `from` (inclusive) through the last processed stage, together with the
// next stage number a rejoining engine should resume at and the largest
// broadcast sequence number this site has seen from `origin` (so the
// rejoiner can renumber past its own pre-crash messages). The triple is
// captured atomically in the engine goroutine: the entries cover exactly
// the decisions of every stage below the returned stage number.
func (o *Optimistic) DefinitiveLog(from uint64, origin transport.NodeID) ([]DefEntry, uint64, uint64, error) {
	reply := make(chan defLogReply, 1)
	select {
	case o.defCh <- defLogQuery{from: from, origin: origin, reply: reply}:
		r := <-reply
		return r.entries, r.nextStage, r.resumeSeq, r.err
	case <-o.stop:
		return nil, 0, 0, transport.ErrClosed
	}
}

// serveDefLog runs in the engine goroutine.
func (o *Optimistic) serveDefLog(q defLogQuery) defLogReply {
	r := defLogReply{nextStage: o.nextProcess}
	if q.from > o.defSeq+1 {
		// The requester is ahead of this site: serving a backlog from
		// here would make it re-enter consensus with misaligned
		// definitive positions. Refuse, so a state-transfer client fails
		// over to a more advanced donor.
		r.err = fmt.Errorf("abcast: definitive log requested from %d but this site is at %d (donor behind joiner)",
			q.from, o.defSeq)
		return r
	}
	// Oldest position this site can vouch for: the head of the retained
	// history, or the position right after the counter when nothing is
	// retained (fresh or fully pruned).
	oldest := o.defSeq + 1
	if len(o.defLog) > 0 {
		oldest = o.defLog[0].Seq
	}
	if q.from < oldest {
		r.err = fmt.Errorf("%w: want from %d, oldest retained %d", ErrHistoryPruned, q.from, oldest)
		return r
	}
	for _, ent := range o.defLog {
		if ent.Seq >= q.from {
			r.entries = append(r.entries, *ent)
		}
	}
	// Largest sequence number seen from origin, across everything this
	// site ever received (optDone spans delivered bodies; decided spans
	// ordered messages whose bodies may still be pending).
	for id := range o.optDone {
		if id.Origin == q.origin && id.Seq > r.resumeSeq {
			r.resumeSeq = id.Seq
		}
	}
	for id := range o.decided {
		if id.Origin == q.origin && id.Seq > r.resumeSeq {
			r.resumeSeq = id.Seq
		}
	}
	return r
}

// Dump returns a snapshot of the engine's ordering state, for debugging.
// It is served by the engine goroutine.
func (o *Optimistic) Dump() string {
	reply := make(chan string, 1)
	select {
	case o.dumpCh <- reply:
		return <-reply
	case <-o.stop:
		return "engine stopped"
	}
}

func (o *Optimistic) dumpLocked() string {
	return fmt.Sprintf("abcast(%v): stage=%d nextProcess=%d inFlight=%v undecided=%v pendingTO=%v bufDecisions=%d",
		o.ep.ID(), o.stage, o.nextProcess, o.inFlight, o.undecided, o.pendingTO, len(o.decisionBuf))
}

func sameIDs(a, b []MsgID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
