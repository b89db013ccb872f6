package shard

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"otpdb/internal/db"
	"otpdb/internal/metrics"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// decisionCacheCap bounds the in-memory verdict cache. The home shard's
// record is the durable truth; the cache only short-circuits lookups.
const decisionCacheCap = 4096

// resolveTick is the resolver's scan period.
const resolveTick = 200 * time.Millisecond

// Config parameterises a Hub.
type Config struct {
	// Origin is this process's node identity, stamped into XIDs.
	Origin transport.NodeID
	// Incarnation distinguishes XIDs across restarts of this process.
	Incarnation uint64
	// ResolveAfter is how long a prepare may block before the resolver
	// presumes its coordinator dead and proposes abort at the home
	// shard. It MUST exceed the coordinators' VoteTimeout, or the
	// resolver aborts transactions their live coordinator is still
	// driving. Defaults to 5s. The resolver scans every resolveTick.
	ResolveAfter time.Duration
	// Metrics, when non-nil, registers hub telemetry (presumed-abort
	// resolutions) under the scope's labels.
	Metrics *metrics.Scope
}

// blockedPrepare is a prepare transaction parked at the head of its
// class queues, waiting for the cross-shard verdict.
type blockedPrepare struct {
	xid   XID
	shard int
	home  int
	since time.Time
	ch    chan Verdict // buffered 1; receives the verdict exactly once
}

// Hub is the process-local coordination point of cross-shard
// transactions. It never talks to the network itself: all cross-process
// agreement rides on ordinary transactions (prepare per shard, decide at
// the home shard), and the hub merely connects the local executions of
// those transactions — votes from prepares, verdicts from decides — to
// the local coordinators and blocked prepares.
//
// Deployment requirement: every process attached to any shard must also
// host a replica of every shard it coordinates or prepares for —
// concretely, in this codebase every process hosts all shards — so the
// home shard's decide executes locally everywhere and wakes the local
// blocked prepares with the same first-wins verdict. That is what makes
// the prepare procedure deterministic across a shard's replicas.
type Hub struct {
	origin       transport.NodeID
	inc          uint64
	resolveAfter time.Duration

	// presumedAborts counts resolver-initiated abort proposals for
	// prepares whose coordinator was presumed crashed.
	presumedAborts *metrics.Counter

	mu        sync.Mutex
	seq       uint64
	attached  map[int][]func() *db.Replica // local replicas by shard, resolved at use
	votes     map[XID]map[int]bool
	decisions map[XID]Verdict
	decOrder  []XID
	blocked   map[*blockedPrepare]bool
	active    map[XID]bool      // coordinations driven by a live local coordinator
	resolving map[XID]time.Time // resolver decide submitted, awaiting its verdict
	gen       chan struct{}     // closed and remade on every vote/decision

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewHub creates a hub. Call Register on each shard's procedure registry
// and Attach for each local replica, then Start.
func NewHub(cfg Config) *Hub {
	if cfg.ResolveAfter <= 0 {
		cfg.ResolveAfter = 5 * time.Second
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = uint64(time.Now().UnixNano())
	}
	return &Hub{
		origin:         cfg.Origin,
		inc:            cfg.Incarnation,
		resolveAfter:   cfg.ResolveAfter,
		presumedAborts: cfg.Metrics.Counter("shard_presumed_abort_total"),
		attached:       make(map[int][]func() *db.Replica),
		votes:          make(map[XID]map[int]bool),
		decisions:      make(map[XID]Verdict),
		blocked:        make(map[*blockedPrepare]bool),
		active:         make(map[XID]bool),
		resolving:      make(map[XID]time.Time),
		gen:            make(chan struct{}),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
}

// Register installs the prepare and decide procedures for one shard's
// registry. Every shard of the deployment must register them (prepares
// run in any shard; decides only ever carry CoordClass work but the
// procedure must resolve everywhere the class exists).
func (h *Hub) Register(reg *sproc.Registry) error {
	err := reg.RegisterMulti(sproc.MultiUpdate{
		Name:    PrepareProc,
		Classes: []sproc.ClassID{CoordClass}, // fallback only; requests carry the real set
		Dynamic: true,
		Fn:      h.runPrepare,
	})
	if err != nil {
		return err
	}
	return reg.RegisterUpdate(sproc.Update{
		Name:  DecideProc,
		Class: CoordClass,
		Fn:    h.runDecide,
	})
}

// Attach wires a local replica of a shard into the hub. The getter is
// consulted on use, so the hub survives replica replacement (crash,
// rejoin, membership change) with no re-attachment; it may return nil
// while the site is down.
func (h *Hub) Attach(shard int, get func() *db.Replica) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attached[shard] = append(h.attached[shard], get)
}

// Start launches the resolver. Safe to call once.
func (h *Hub) Start() {
	h.startOnce.Do(func() { go h.resolver() })
}

// Stop halts the resolver and releases blocked prepares with an abort
// verdict locally (the process is shutting down; its replicas' state is
// moot, but their goroutines must unwind).
func (h *Hub) Stop() {
	select {
	case <-h.stop:
		<-h.done
		return
	default:
	}
	close(h.stop)
	<-h.done
}

// NewXID mints a globally unique cross-transaction attempt identity.
func (h *Hub) NewXID() XID {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	return XID{Origin: h.origin, Inc: h.inc, Seq: h.seq}
}

// localReplica returns a live local replica of a shard, or nil.
func (h *Hub) localReplica(shard int) *db.Replica {
	h.mu.Lock()
	getters := h.attached[shard]
	h.mu.Unlock()
	for _, get := range getters {
		if r := get(); r != nil {
			return r
		}
	}
	return nil
}

// localReplicas returns all live local replicas of a shard.
func (h *Hub) localReplicas(shard int) []*db.Replica {
	h.mu.Lock()
	getters := h.attached[shard]
	h.mu.Unlock()
	var out []*db.Replica
	for _, get := range getters {
		if r := get(); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// markActive registers a locally-driven coordination: the resolver keeps
// its hands off until unmarkActive (coordinator finished or abandoned).
func (h *Hub) markActive(x XID) {
	h.mu.Lock()
	h.active[x] = true
	h.mu.Unlock()
}

func (h *Hub) unmarkActive(x XID) {
	h.mu.Lock()
	delete(h.active, x)
	h.mu.Unlock()
}

// vote records one shard's prepare validation result and wakes waiters.
func (h *Hub) vote(x XID, shard int, yes bool) {
	h.mu.Lock()
	m := h.votes[x]
	if m == nil {
		m = make(map[int]bool)
		h.votes[x] = m
	}
	m[shard] = yes
	h.bumpLocked()
	h.mu.Unlock()
}

// bumpLocked broadcasts a state change to waitVotes parkers.
func (h *Hub) bumpLocked() {
	close(h.gen)
	h.gen = make(chan struct{})
}

// waitVotes blocks until every listed shard has voted on x, any shard
// votes no, the timeout lapses, or ctx is done. It reports whether all
// votes arrived and were yes.
func (h *Hub) waitVotes(stop <-chan struct{}, x XID, shards []int, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		h.mu.Lock()
		m := h.votes[x]
		all, yes := true, true
		for _, s := range shards {
			v, ok := m[s]
			if !ok {
				all = false
				break
			}
			if !v {
				yes = false
			}
		}
		gen := h.gen
		h.mu.Unlock()
		if all {
			return yes
		}
		select {
		case <-gen:
		case <-deadline.C:
			return false
		case <-stop:
			return false
		case <-h.stop:
			return false
		}
	}
}

// applyDecision publishes a verdict process-locally: cache it, drop the
// vote tally, and wake every blocked prepare of x. Idempotent (the first
// verdict wins — callers always pass the home record's winner, so
// repeats agree anyway).
func (h *Hub) applyDecision(x XID, v Verdict) {
	if v == VerdictNone {
		return
	}
	h.mu.Lock()
	if _, ok := h.decisions[x]; !ok {
		h.decisions[x] = v
		h.decOrder = append(h.decOrder, x)
		if len(h.decOrder) > decisionCacheCap {
			old := h.decOrder[0]
			h.decOrder = h.decOrder[1:]
			delete(h.decisions, old)
		}
	}
	v = h.decisions[x]
	delete(h.votes, x)
	delete(h.resolving, x)
	for bp := range h.blocked {
		if bp.xid == x {
			select {
			case bp.ch <- v:
			default:
			}
			delete(h.blocked, bp)
		}
	}
	h.bumpLocked()
	h.mu.Unlock()
}

// lookupDecision returns the known verdict of x: the local cache, else
// the home shard's durable record read from a local replica's store.
func (h *Hub) lookupDecision(x XID, home int) Verdict {
	h.mu.Lock()
	if v, ok := h.decisions[x]; ok {
		h.mu.Unlock()
		return v
	}
	h.mu.Unlock()
	for _, r := range h.localReplicas(home) {
		if b, ok := r.Store().Get(storage.Partition(CoordClass), recordKey(x)); ok {
			return decodeVerdict(b)
		}
	}
	return VerdictNone
}

// addBlocked parks a prepare; the caller selects on the returned
// channel. removeBlocked must be called if the wait is abandoned.
func (h *Hub) addBlocked(x XID, shard, home int) *blockedPrepare {
	bp := &blockedPrepare{xid: x, shard: shard, home: home, since: time.Now(), ch: make(chan Verdict, 1)}
	h.mu.Lock()
	if v, ok := h.decisions[x]; ok {
		bp.ch <- v
	} else {
		h.blocked[bp] = true
	}
	h.mu.Unlock()
	return bp
}

func (h *Hub) removeBlocked(bp *blockedPrepare) {
	h.mu.Lock()
	delete(h.blocked, bp)
	h.mu.Unlock()
}

// runPrepare is the body of PrepareProc, executed by every replica of a
// touched shard under the transaction's real conflict classes. It parks
// at the head of those class queues — the 2PC lock, held without
// touching the scheduler — until the cross-shard verdict arrives, then
// applies the writes iff the verdict is commit. Everything observable
// (the vote, the applied writes) happens strictly after the prepare's
// own definitive (TO) position is fixed, so all replicas of the shard
// validate against identical state and commit identical effects.
func (h *Hub) runPrepare(ctx sproc.MultiUpdateCtx) (storage.Value, error) {
	args := ctx.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("shard: prepare wants 1 arg, got %d", len(args))
	}
	p, err := decodePrepare(args[0])
	if err != nil {
		return nil, err
	}
	tc, ok := ctx.(sproc.TxnControl)
	if !ok {
		return nil, fmt.Errorf("shard: prepare context %T lacks TxnControl", ctx)
	}

	// Stage 1: wait for this prepare's own definitive position. A vote
	// cast from a tentative execution could be invalidated by a
	// Correctness Check re-execution after the coordinator already
	// decided — breaking atomicity — so nothing escapes before this.
	select {
	case <-tc.Definitive():
	case <-tc.AbortSignal():
		return h.abortAttempt(ctx)
	}

	// Stage 2: the verdict may already exist — a resolver or coordinator
	// decide does not conflict with this prepare (CoordClass is not
	// among its classes) and can be ordered and executed first.
	if v := h.lookupDecision(p.XID, p.Home); v != VerdictNone {
		return h.finishPrepare(ctx, &p, v)
	}

	// Stage 3: validate the coordinator's phase-0 reads against this
	// shard's state at the prepare's definitive position. The state is
	// identical at every replica of the shard, so the vote is too.
	valid := true
	for _, rd := range p.Reads {
		v, present := ctx.Read(rd.Class, rd.Key)
		if present != rd.Present || !bytes.Equal(v, rd.Value) {
			valid = false
			break
		}
	}
	select {
	case <-tc.AbortSignal():
		// Unreachable if the stability argument holds; fail safe.
		return h.abortAttempt(ctx)
	default:
	}

	// Stage 4: vote and park until the verdict. The vote is process-
	// local — only the coordinating process reads its own tally; on
	// every other process it is inert bookkeeping.
	h.vote(p.XID, p.Shard, valid)
	bp := h.addBlocked(p.XID, p.Shard, p.Home)
	defer h.removeBlocked(bp)
	select {
	case v := <-bp.ch:
		return h.finishPrepare(ctx, &p, v)
	case <-tc.AbortSignal():
		return h.abortAttempt(ctx)
	case <-h.stop:
		// Process shutdown: this replica's state is moot, but the
		// goroutine must unwind. Committing the empty prepare here
		// could diverge from peers; fail the procedure instead.
		return nil, fmt.Errorf("shard: hub stopped while prepare %v blocked", p.XID)
	}
}

// finishPrepare applies the verdict: install the shard's writes on
// commit, nothing on abort. The prepare transaction itself always
// commits (possibly empty) — the verdict decides its payload, keeping
// the scheduler's one-commit-per-TO-delivery invariant intact.
func (h *Hub) finishPrepare(ctx sproc.MultiUpdateCtx, p *prepPayload, v Verdict) (storage.Value, error) {
	if v == VerdictCommit {
		for _, w := range p.Writes {
			if err := ctx.Write(w.Class, w.Key, w.Value); err != nil {
				return nil, err
			}
		}
	}
	return encodeVerdict(v), nil
}

// abortAttempt reports a Correctness Check abort back to the executor:
// one more context access records the abort, and returning a nil error
// lets the executor's sentinel flow handle the rest.
func (h *Hub) abortAttempt(ctx sproc.MultiUpdateCtx) (storage.Value, error) {
	_, _ = ctx.Read(CoordClass, "__probe")
	return nil, nil
}

// runDecide is the body of DecideProc. The first decide of an XID in the
// home shard's definitive order writes the durable record; later ones
// (coordinator/resolver races) read the winner back. Local side effects
// — waking this process's blocked prepares — fire only after the
// decide's own definitive position, for the same stability reason as
// the prepare's vote.
func (h *Hub) runDecide(ctx sproc.UpdateCtx) (storage.Value, error) {
	args := ctx.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("shard: decide wants 1 arg, got %d", len(args))
	}
	d, err := decodeDecide(args[0])
	if err != nil {
		return nil, err
	}
	tc, ok := ctx.(sproc.TxnControl)
	if !ok {
		return nil, fmt.Errorf("shard: decide context %T lacks TxnControl", ctx)
	}
	winner := d.Verdict
	key := recordKey(d.XID)
	if existing, ok := ctx.Read(key); ok {
		winner = decodeVerdict(existing)
	} else if err := ctx.Write(key, encodeVerdict(winner)); err != nil {
		return nil, err
	}
	select {
	case <-tc.Definitive():
	case <-tc.AbortSignal():
		_, _ = ctx.Read(key) // record the abort with the executor
		return nil, nil
	}
	h.applyDecision(d.XID, winner)
	return encodeVerdict(winner), nil
}

// resolver watches for prepares blocked past ResolveAfter whose
// coordinator is not locally active — the coordinating process is
// presumed crashed — and terminates them: adopt the home record if one
// exists, otherwise propose abort at the home shard. First-wins ordering
// there makes the race against a slow-but-alive coordinator safe: one
// verdict wins everywhere.
func (h *Hub) resolver() {
	defer close(h.done)
	ticker := time.NewTicker(resolveTick)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		type target struct {
			xid  XID
			home int
		}
		var stale []target
		h.mu.Lock()
		seen := make(map[XID]bool)
		for bp := range h.blocked {
			if h.active[bp.xid] || seen[bp.xid] {
				continue
			}
			if now.Sub(bp.since) < h.resolveAfter {
				continue
			}
			if t, ok := h.resolving[bp.xid]; ok && now.Sub(t) < h.resolveAfter {
				continue // a resolver decide is already in flight
			}
			seen[bp.xid] = true
			h.resolving[bp.xid] = now
			stale = append(stale, target{xid: bp.xid, home: bp.home})
		}
		h.mu.Unlock()
		for _, t := range stale {
			if v := h.lookupDecision(t.xid, t.home); v != VerdictNone {
				h.applyDecision(t.xid, v)
				continue
			}
			h.presumedAborts.Inc()
			h.submitDecide(t.xid, t.home, VerdictAbort)
		}
	}
}

// submitDecide proposes a verdict at the home shard through any live
// local replica. Fire-and-forget: the decide's own local execution
// applies the winner via applyDecision.
func (h *Hub) submitDecide(x XID, home int, v Verdict) {
	req := sproc.Request{Proc: DecideProc, Args: []storage.Value{decidePayload{XID: x, Verdict: v}.encode()}}
	for _, r := range h.localReplicas(home) {
		if _, err := r.SubmitRequest(req, nil); err == nil {
			return
		}
	}
}
