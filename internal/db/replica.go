// Package db assembles one replica of the replicated database: the atomic
// broadcast with optimistic delivery below, the OTP transaction manager in
// the middle, and the versioned storage engine with stored procedures on
// top (Figure 3 of the paper).
//
// Replica control follows Section 2.4 (read-one/write-all): update
// transactions are TO-broadcast and executed at every site; read-only
// queries execute locally against multi-version snapshots (Section 5).
package db

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/metrics"
	"otpdb/internal/otp"
	"otpdb/internal/recovery"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// QueryRead is one key observation of a read-only query: the query saw
// the version of Key (in Class) written by the update with TO index
// Version (0 = initial database state).
type QueryRead struct {
	Class   sproc.ClassID
	Key     storage.Key
	Version int64
}

// HistorySink receives committed-transaction and query observations for
// offline serializability checking. Implementations must be safe for
// concurrent use. internal/history provides the standard recorder.
type HistorySink interface {
	// RecordUpdate is called once per committed update transaction, with
	// its full class set and partition-qualified read/write sets.
	RecordUpdate(site transport.NodeID, id abcast.MsgID, classes []sproc.ClassID,
		toIndex int64, readSet, writeSet []storage.ClassKey)
	// RecordQuery is called once per completed read-only query with all
	// the versioned reads it performed. queryIndex is the query's
	// Section 5 index i (the query logically runs at i+0.5).
	RecordQuery(site transport.NodeID, queryIndex int64, reads []QueryRead)
}

// CommitInfo describes one update transaction as committed at this site:
// the procedure's return value, its definitive total-order position, and
// how the optimistic protocol treated it on the way there.
type CommitInfo struct {
	// Value is the stored procedure's return value (may be nil).
	Value storage.Value
	// TOIndex is the definitive (TO-delivery) index of the transaction.
	TOIndex int64
	// Retried reports that the tentative execution was undone by the
	// Correctness Check and redone (CC8: tentative order contradicted).
	Retried bool
	// Reordered reports that TO-delivery moved the transaction ahead of
	// pending transactions in one of its class queues (CC10).
	Reordered bool
}

// CommitResult is what a commit waiter receives: the commit info, or a
// terminal error (failed procedure, malformed request, replica stopped).
type CommitResult struct {
	Info CommitInfo
	Err  error
}

// QueryMode selects how queries read (Section 5 vs the broken baseline).
type QueryMode int

// Query modes.
const (
	// SnapshotQueries is the paper's Section 5 design: a query receives
	// index i+0.5 (i = last TO-delivered transaction) and reads, per
	// class, the latest version with index <= i, waiting for that
	// version's transaction to commit if necessary.
	SnapshotQueries QueryMode = iota + 1
	// DirtyQueries reads the latest committed value with no index
	// discipline — the baseline Section 5 shows violates
	// 1-copy-serializability. Provided for the E5 ablation only.
	DirtyQueries
)

// Config assembles a Replica.
type Config struct {
	// ID is the site identifier (must match the broadcaster's).
	ID transport.NodeID
	// Broadcast is the atomic broadcast attachment. The replica consumes
	// its Deliveries; the caller owns Start/Stop of the engine itself.
	Broadcast abcast.Broadcaster
	// Registry holds the stored procedures (shared across the cluster).
	Registry *sproc.Registry
	// Store is the local storage engine; nil creates an empty one.
	Store *storage.Store
	// Queries selects the query strategy (default SnapshotQueries).
	Queries QueryMode
	// History, when non-nil, receives commit and query observations.
	History HistorySink
	// Durability, when non-nil, makes the replica durable: every
	// definitive commit is appended to the write-ahead log before the
	// submitting client is acknowledged, and a checkpoint is taken every
	// Durability.CheckpointEvery() commits to bound replay. The replica
	// takes ownership: Stop flushes and closes it.
	Durability *recovery.Durability
	// InitialTOIndex resumes the definitive index counter after
	// recovery: the next TO delivery is assigned InitialTOIndex+1. The
	// store must hold exactly the committed state at that index (as
	// Durability.Recover and Cluster.RestartSite arrange).
	InitialTOIndex int64
	// ConfigClass, when set together with OnConfigCommit, names the
	// reserved conflict class carrying group-configuration commands
	// (internal/member). Whenever a transaction of that class commits
	// with a non-nil result, OnConfigCommit receives the committed value
	// and its definitive index — before the submitting client is
	// acknowledged, so a successful change is applied locally by the
	// time its Exec returns. The hook runs on the commit path and must
	// not block.
	ConfigClass    sproc.ClassID
	OnConfigCommit func(value storage.Value, toIndex int64)
	// Metrics, when non-nil, registers the replica's scheduler telemetry
	// (commits, CC8 rollbacks, CC10 repositionings, pending depth) under
	// the scope's labels. Collectors pull from the scheduler's existing
	// Stats() snapshot at scrape time — zero cost on the commit path.
	Metrics *metrics.Scope
	// Trace, when non-nil, receives one lifecycle span per transaction
	// event at this site (submit, opt-deliver, to-deliver, commit,
	// abort).
	Trace *metrics.TraceRing
	// Shard stamps trace events with this replica's shard index (purely
	// informational; 0 for unsharded deployments).
	Shard int
}

// commitsPerPrune is the number of local commits between version-prune
// passes: at each, the store's watermark advances to the oldest active
// query snapshot (or the last TO index when no query is active) and
// versions below it are discarded.
const commitsPerPrune = 1024

// Replica is one site of the replicated database.
type Replica struct {
	id       transport.NodeID
	bcast    abcast.Broadcaster
	reg      *sproc.Registry
	store    *storage.Store
	qmode    QueryMode
	hist     HistorySink
	mgr      *otp.MultiManager
	cfgClass sproc.ClassID
	cfgHook  func(value storage.Value, toIndex int64)
	trace    *metrics.TraceRing
	shard    int
	txnFails *metrics.Counter

	// traceIDs maps an in-flight message to the cluster-wide trace ID
	// its request carried, so every span this replica records for it can
	// be stitched with spans from other sites; txnKeys interns the
	// formatted message ID so the several spans of one transaction share
	// one string (the traced arm's E7 overhead is almost entirely GC
	// amplification of per-span allocations against a large live heap —
	// the ≤3% budget of DESIGN.md §12 holds only with the interning).
	// Entries are removed at commit/abort; their own mutex keeps span()
	// callable under r.mu.
	traceMu  sync.Mutex
	traceIDs map[abcast.MsgID]string
	txnKeys  map[abcast.MsgID]string

	// stallNanos, when nonzero, adds a dwell before each definitive
	// delivery: the modeled slow disk, a serial flush device in the
	// commit pipeline. Chaos sets it as a slow-disk fault, E12 as the
	// per-commit flush of its scaling sweep. The dwell is transport.Dwell,
	// so a sub-millisecond stall costs about its nominal length and no
	// processor; Stop ends it.
	stallNanos atomic.Int64

	mu         sync.Mutex
	waiters    map[abcast.MsgID]func(CommitResult)
	classLast  map[sproc.ClassID]int64 // largest TO index seen per class
	lastTO     int64                   // largest TO index seen overall
	optCount   uint64                  // transactions admitted by the scheduler
	commits    uint64                  // transactions committed locally
	commitCond *sync.Cond
	stopped    bool

	// Version pruning: active query snapshots pin the versions they may
	// still read; every pruneEvery commits the store's watermark advances
	// to the oldest pinned snapshot (or lastTO when none is active).
	activeSnaps map[int64]int // qIndex -> active query count
	pruneEvery  int           // commitsPerPrune; in-package tests lower it
	sincePrune  int

	// Durability: every commit is WAL-logged by the executor before the
	// client ack; every ckptEvery commits a background checkpoint bounds
	// replay (at most one in flight, extra triggers dropped; Stop joins
	// it via ckptWG before closing the directory, so no checkpoint
	// writer outlives the replica).
	dur       *recovery.Durability
	ckptEvery int
	sinceCkpt int
	ckptWG    sync.WaitGroup

	exec *executor

	stop chan struct{}
	done chan struct{}
}

// Errors returned by the replica.
var (
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("db: replica stopped")
	// ErrNotUpdate is returned by Exec for a name registered as a query.
	ErrNotUpdate = errors.New("db: procedure is not an update")
)

// New creates a replica. Call Start to begin processing deliveries.
func New(cfg Config) (*Replica, error) {
	if cfg.Broadcast == nil {
		return nil, fmt.Errorf("db: Config.Broadcast is required")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("db: Config.Registry is required")
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewStore()
	}
	if cfg.Queries == 0 {
		cfg.Queries = SnapshotQueries
	}
	r := &Replica{
		id:          cfg.ID,
		bcast:       cfg.Broadcast,
		reg:         cfg.Registry,
		store:       cfg.Store,
		qmode:       cfg.Queries,
		hist:        cfg.History,
		cfgClass:    cfg.ConfigClass,
		cfgHook:     cfg.OnConfigCommit,
		trace:       cfg.Trace,
		shard:       cfg.Shard,
		txnFails:    cfg.Metrics.Counter("otp_txn_fail_total"),
		traceIDs:    make(map[abcast.MsgID]string),
		txnKeys:     make(map[abcast.MsgID]string),
		waiters:     make(map[abcast.MsgID]func(CommitResult)),
		classLast:   make(map[sproc.ClassID]int64),
		activeSnaps: make(map[int64]int),
		pruneEvery:  commitsPerPrune,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	r.commitCond = sync.NewCond(&r.mu)
	r.exec = newExecutor(r)
	r.mgr = otp.NewMultiManager(r.exec, otp.MultiHooks{
		OnCommit:      r.onCommit,
		OnTODelivered: r.onTODelivered,
	})
	if cfg.Durability != nil {
		r.dur = cfg.Durability
		r.ckptEvery = cfg.Durability.CheckpointEvery()
	}
	// Scheduler telemetry pulls the manager's Stats() snapshot at scrape
	// time; only the registration happens here, nothing on the hot path.
	//otplint:allow metricnames pull-style counter: the Func surfaces the monotonic Stats().Commits total, so _total states its semantics
	cfg.Metrics.Func("otp_commits_total", func() float64 {
		return float64(r.mgr.Stats().Commits)
	})
	//otplint:allow metricnames pull-style counter over monotonic Stats().Aborts
	cfg.Metrics.Func("otp_rollback_total", func() float64 {
		return float64(r.mgr.Stats().Aborts)
	})
	//otplint:allow metricnames pull-style counter over monotonic Stats().Reorders
	cfg.Metrics.Func("otp_reposition_total", func() float64 {
		return float64(r.mgr.Stats().Reorders)
	})
	//otplint:allow metricnames pull-style counter over monotonic Stats().Submits
	cfg.Metrics.Func("otp_submit_total", func() float64 {
		return float64(r.mgr.Stats().Submits)
	})
	cfg.Metrics.Func("otp_pending", func() float64 {
		return float64(r.mgr.Pending())
	})
	cfg.Metrics.Func("otp_last_to_index", func() float64 {
		return float64(r.LastTO())
	})
	if cfg.InitialTOIndex > 0 {
		// Resume after recovery: the definitive counter continues past
		// the recovered index, and the per-class snapshot targets reflect
		// the committed floors the recovered store carries. The admission
		// and commit counters also resume there (each TO delivery commits
		// exactly once, so at quiescence commits == lastTO), keeping
		// WaitCommits thresholds comparable across recovered and
		// never-crashed replicas.
		r.lastTO = cfg.InitialTOIndex
		r.optCount = uint64(cfg.InitialTOIndex)
		r.commits = uint64(cfg.InitialTOIndex)
		r.mgr.StartAt(cfg.InitialTOIndex)
		for _, p := range r.store.Partitions() {
			if lc := r.store.LastCommitted(p); lc > 0 {
				r.classLast[sproc.ClassID(p)] = lc
			}
		}
	}
	return r, nil
}

// span records one lifecycle trace event, stamped with the message's
// cluster-wide trace ID when its request carried one. The nil guard
// keeps the untraced path allocation-free (id.String() would otherwise
// format).
func (r *Replica) span(id abcast.MsgID, span, note string) {
	if r.trace == nil {
		return
	}
	r.traceMu.Lock()
	key, ok := r.txnKeys[id]
	if !ok {
		key = id.String()
		r.txnKeys[id] = key
	}
	tid := r.traceIDs[id]
	r.traceMu.Unlock()
	r.trace.Record(metrics.TraceEvent{
		Txn: key, Trace: tid, Span: span, Site: int(r.id), Shard: r.shard, Note: note,
	})
}

// noteTrace associates a message with the trace ID its request
// carried; forgetTrace drops the association (and the interned key) at
// commit/abort.
func (r *Replica) noteTrace(id abcast.MsgID, tid string) {
	if r.trace == nil || tid == "" {
		return
	}
	r.traceMu.Lock()
	r.traceIDs[id] = tid
	r.traceMu.Unlock()
}

func (r *Replica) forgetTrace(id abcast.MsgID) {
	if r.trace == nil {
		return
	}
	r.traceMu.Lock()
	delete(r.traceIDs, id)
	delete(r.txnKeys, id)
	r.traceMu.Unlock()
}

// onTODelivered tracks the largest definitive index, globally and per
// conflict class; Section 5 queries capture the pair atomically under
// r.mu. Invoked under the scheduler lock, so it must not call back into
// the scheduler (Query reads r.lastTO instead of the scheduler's
// LastTOIndex for the same reason: lock ordering is always mgr.mu ->
// r.mu).
func (r *Replica) onTODelivered(id abcast.MsgID, classes []otp.ClassID, toIndex int64) {
	r.mu.Lock()
	for _, class := range classes {
		if toIndex > r.classLast[sproc.ClassID(class)] {
			r.classLast[sproc.ClassID(class)] = toIndex
		}
	}
	if toIndex > r.lastTO {
		r.lastTO = toIndex
	}
	r.mu.Unlock()
	// Fix the transaction's definitive position for its running attempt
	// (sproc.TxnControl.Definitive) — blocking procedures vote and apply
	// side effects only past this point. markTO takes only the executor
	// lock, so calling it under the scheduler lock is safe.
	r.exec.markTO(id)
}

// Start launches the delivery loop.
func (r *Replica) Start() {
	go r.run()
}

// Stop halts the delivery loop. The broadcaster is not stopped (the
// caller owns it). Outstanding Exec waiters receive ErrStopped.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.stop)
	<-r.done
	r.mu.Lock()
	orphans := make([]func(CommitResult), 0, len(r.waiters))
	for id, fn := range r.waiters {
		orphans = append(orphans, fn)
		delete(r.waiters, id)
	}
	r.commitCond.Broadcast()
	r.mu.Unlock()
	for _, fn := range orphans {
		fn(CommitResult{Err: ErrStopped})
	}
	if r.dur != nil {
		// Join any in-flight background checkpoint (its waits resolve
		// with ErrStopped now that stopped is set), then flush the WAL
		// tail so a clean shutdown loses nothing even under the grouped
		// or OS-driven sync policies — and no writer outlives the
		// replica's claim on the data directory (RestartSite reopens it).
		r.ckptWG.Wait()
		_ = r.dur.Close()
	}
}

// ID returns the site identifier.
func (r *Replica) ID() transport.NodeID { return r.id }

// LastTO reports the largest definitive (TO-delivery) index this
// replica has seen — the `to=` field operators read in otpd's STATS
// line to watch a joiner catch up.
func (r *Replica) LastTO() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastTO
}

// SetCommitStall adds a dwell of d before every subsequent definitive
// delivery at this replica, modelling a slow or stalled WAL flush; zero
// clears the stall. Safe to call concurrently with delivery.
func (r *Replica) SetCommitStall(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.stallNanos.Store(int64(d))
}

// Store returns the local storage engine (for inspection and seeding).
func (r *Replica) Store() *storage.Store { return r.store }

// Manager exposes the OTP scheduler (stats, queue snapshots, invariants).
// Single-class procedures schedule exactly as the paper's Manager; the
// MultiManager generalization also admits multi-class procedures.
func (r *Replica) Manager() *otp.MultiManager { return r.mgr }

// run is the delivery loop: the Tentative/Definitive Atomic Broadcast
// modules of Figure 3 feeding the Serialization and Correctness Check
// modules.
func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case ev, ok := <-r.bcast.Deliveries():
			if !ok {
				return
			}
			r.onDelivery(ev)
		case <-r.stop:
			return
		}
	}
}

func (r *Replica) onDelivery(ev abcast.Event) {
	switch ev.Kind {
	case abcast.Opt:
		req, ok := ev.Payload.(sproc.Request)
		if !ok {
			r.failWaiter(ev.ID, fmt.Errorf("db: malformed payload %T", ev.Payload))
			return
		}
		classes, err := r.reg.RequestClasses(req)
		if err != nil {
			r.failWaiter(ev.ID, err)
			return
		}
		// The scheduler keeps its own normalized copy of the classes and
		// the payload as it came, boxed once by the broadcast layer.
		var buf [4]otp.ClassID
		otpClasses := buf[:0]
		for _, c := range classes {
			otpClasses = append(otpClasses, otp.ClassID(c))
		}
		if err := r.mgr.OnOptDeliver(ev.ID, otpClasses, ev.Payload); err != nil {
			r.failWaiter(ev.ID, err)
			return
		}
		r.noteTrace(ev.ID, req.Trace)
		r.span(ev.ID, metrics.SpanOptDeliver, "")
		// Count scheduler admissions for WaitCommits: optCount - commits
		// equals the manager's pending set, and both counters live under
		// r.mu so the commit condition can be re-checked race-free.
		r.mu.Lock()
		r.optCount++
		r.mu.Unlock()
	case abcast.TO:
		// The slow disk: a stall does not outlast Stop, and none starts
		// after it.
		transport.Dwell(time.Duration(r.stallNanos.Load()), r.stop)
		// Record the class's definitive index for query snapshots before
		// the manager processes the confirmation (queries capture the
		// pair atomically under r.mu).
		r.span(ev.ID, metrics.SpanTODeliver, "")
		if err := r.mgr.OnTODeliver(ev.ID); err != nil {
			// Unknown transaction: the payload was malformed at Opt time
			// and never entered a queue. Already reported.
			return
		}
	}
}

// onCommit tracks the commit counter and signals snapshot and WaitCommits
// waiters. The submitting client's waiter is resolved by the executor
// (which holds the procedure's return value) just before this hook runs.
// Every pruneEvery commits the version store is pruned up to the oldest
// snapshot any active query can still read.
func (r *Replica) onCommit(tx *otp.MultiTxn) {
	r.span(tx.ID, metrics.SpanCommit, "")
	r.forgetTrace(tx.ID)
	r.mu.Lock()
	r.commits++
	r.commitCond.Broadcast()
	horizon := int64(0)
	r.sincePrune++
	if r.sincePrune >= r.pruneEvery {
		r.sincePrune = 0
		horizon = r.pruneHorizonLocked()
	}
	ckpt := false
	if r.dur != nil && r.ckptEvery > 0 && !r.stopped {
		r.sinceCkpt++
		if r.sinceCkpt >= r.ckptEvery {
			r.sinceCkpt = 0
			// Registered under r.mu: Stop flips stopped under the same
			// lock before joining ckptWG, so no checkpoint goroutine is
			// added after the join begins.
			if r.dur.TryBeginCheckpoint() {
				ckpt = true
				r.ckptWG.Add(1)
			}
		}
	}
	r.mu.Unlock()
	if horizon > 0 {
		// Outside r.mu: pruning walks every partition under its lock.
		r.store.Prune(horizon)
	}
	if ckpt {
		// Background: a checkpoint waits for the commit frontier and
		// walks the whole store; the commit path must not.
		go r.backgroundCheckpoint()
	}
}

// ckptPinTimeout bounds how long a background checkpoint may wait for
// the commit frontier — and therefore how long it may pin versions
// against pruning. Every Replica.Checkpoint caller is expected to bound
// its pin the same way (statex transfers carry their own deadline).
const ckptPinTimeout = 2 * time.Minute

// backgroundCheckpoint takes a consistent checkpoint at the current
// definitive frontier and hands it to the durability layer, which bounds
// the WAL against it. Failures are non-fatal (the log alone still
// recovers everything); the claimed checkpoint slot is always released.
func (r *Replica) backgroundCheckpoint() {
	defer r.ckptWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), ckptPinTimeout)
	defer cancel()
	ck, err := r.Checkpoint(ctx)
	if err != nil {
		r.dur.ReleaseCheckpoint()
		return
	}
	_ = r.dur.Checkpoint(ck)
}

// Checkpoint captures a consistent snapshot of the committed state at
// this replica's current definitive index: it is a query snapshot
// (BeginSnap), pinned against version pruning until it returns, that
// waits for every class as a Section 5 read would and then serializes
// the per-key state. The same snapshot serves cold-restart checkpoints
// and live replica catch-up (Cluster.RestartSite streams it to the
// rejoining site).
func (r *Replica) Checkpoint(ctx context.Context) (*storage.Checkpoint, error) {
	snap, err := r.BeginSnap(ctx)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	for _, p := range r.store.Partitions() {
		if err := snap.wait(p); err != nil {
			return nil, err
		}
	}
	return r.store.CheckpointAt(snap.qIndex), nil
}

// pruneHorizonLocked computes the oldest snapshot index still reachable:
// the minimum over active query snapshots, or the last TO-delivered
// index when no query is active (new queries always start at or above
// it). Callers hold r.mu.
func (r *Replica) pruneHorizonLocked() int64 {
	horizon := r.lastTO
	for idx := range r.activeSnaps {
		if idx < horizon {
			horizon = idx
		}
	}
	return horizon
}

// resolveWaiter pops the waiter registered for id, if any, and invokes it
// outside the replica lock. Each waiter fires at most once.
func (r *Replica) resolveWaiter(id abcast.MsgID, res CommitResult) {
	r.mu.Lock()
	fn, ok := r.waiters[id]
	if ok {
		delete(r.waiters, id)
	}
	r.mu.Unlock()
	if ok {
		fn(res)
	}
}

func (r *Replica) failWaiter(id abcast.MsgID, err error) {
	r.txnFails.Inc()
	r.span(id, metrics.SpanAbort, err.Error())
	r.forgetTrace(id)
	r.resolveWaiter(id, CommitResult{Err: err})
}

// SubmitNotify TO-broadcasts an update transaction and registers fn to be
// called exactly once with the local commit outcome (or a terminal
// error). fn may be nil for fire-and-forget submission. fn runs on a
// protocol goroutine and must not block; hand the result off through a
// buffered channel or by closing a done channel.
//
// The waiter is registered before the broadcast is handed to the network,
// so the commit cannot race past it on a fast in-process transport.
func (r *Replica) SubmitNotify(proc string, args []storage.Value, fn func(CommitResult)) (abcast.MsgID, error) {
	return r.SubmitRequest(sproc.Request{Proc: proc, Args: args}, fn)
}

// SubmitRequest is SubmitNotify for a fully-formed request — the entry
// point for Dynamic procedures, whose per-invocation conflict classes
// ride in Request.Classes.
func (r *Replica) SubmitRequest(req sproc.Request, fn func(CommitResult)) (abcast.MsgID, error) {
	if _, err := r.reg.RequestClasses(req); err != nil {
		if errors.Is(err, sproc.ErrUnknownProc) {
			if _, qerr := r.reg.Query(req.Proc); qerr == nil {
				return abcast.MsgID{}, fmt.Errorf("%w: %s", ErrNotUpdate, req.Proc)
			}
		}
		return abcast.MsgID{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return abcast.MsgID{}, ErrStopped
	}
	id, err := r.bcast.Broadcast(req)
	if err != nil {
		return abcast.MsgID{}, err
	}
	if fn != nil {
		r.waiters[id] = fn
	}
	r.noteTrace(id, req.Trace)
	r.span(id, metrics.SpanSubmit, req.Proc)
	return id, nil
}

// Forget deregisters the commit waiter of id, if still pending. The
// transaction itself is unaffected (broadcast is irrevocable); only the
// notification is dropped.
func (r *Replica) Forget(id abcast.MsgID) {
	r.mu.Lock()
	delete(r.waiters, id)
	r.mu.Unlock()
}

// Exec TO-broadcasts an update transaction and waits until it commits
// locally, returning the procedure's value and ordering metadata. On ctx
// cancellation the wait is abandoned but the transaction still commits
// everywhere — broadcast is irrevocable.
func (r *Replica) Exec(ctx context.Context, proc string, args ...storage.Value) (CommitInfo, error) {
	ch := make(chan CommitResult, 1)
	id, err := r.SubmitNotify(proc, args, func(res CommitResult) { ch <- res })
	if err != nil {
		return CommitInfo{}, err
	}
	select {
	case res := <-ch:
		return res.Info, res.Err
	case <-ctx.Done():
		r.Forget(id)
		return CommitInfo{}, ctx.Err()
	}
}

// WaitCommits blocks until this replica has committed at least n update
// transactions and has none pending, or ctx is cancelled. It is driven by
// commit notifications (no polling): every local commit broadcasts the
// replica's condition variable and the predicate is re-checked.
func (r *Replica) WaitCommits(ctx context.Context, n int) error {
	defer context.AfterFunc(ctx, r.wakeWaiters)()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !(r.commits >= uint64(n) && r.optCount == r.commits) && !r.stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.commitCond.Wait()
	}
	if r.stopped {
		return ErrStopped
	}
	return nil
}

// wakeWaiters makes everyone waiting on commitCond look at their context
// again. It broadcasts under r.mu: a lockless broadcast can land between a
// waiter's predicate check and its re-entry into Wait, and be lost forever.
func (r *Replica) wakeWaiters() {
	r.mu.Lock()
	r.commitCond.Broadcast()
	r.mu.Unlock()
}

// Query runs a read-only stored procedure locally (Section 5). The query
// receives index i+0.5 where i is the index of the last TO-delivered
// transaction at this site; every class it touches is read at the latest
// version with index <= i, waiting for in-flight committable transactions
// of that class when necessary.
func (r *Replica) Query(ctx context.Context, name string, args ...storage.Value) (storage.Value, error) {
	q, err := r.reg.Query(name)
	if err != nil {
		return nil, err
	}
	snap, err := r.BeginSnap(ctx)
	if err != nil {
		return nil, err
	}
	defer snap.Close()

	qc := &queryCtx{snap: snap, args: args}
	res, err := q.Fn(qc)
	if err != nil {
		return nil, err
	}
	if snap.err != nil {
		return nil, snap.err
	}
	snap.Record()
	return res, nil
}

// QuerySnap is a pinned consistent read snapshot of this replica — the
// Section 5 query discipline factored out of Query so a multi-shard
// session can hold one snapshot per shard group and route each read to
// the owning shard's. The pin keeps the snapshot's versions alive
// against pruning until Close.
type QuerySnap struct {
	r       *Replica
	ctx     context.Context
	qIndex  int64
	targets map[sproc.ClassID]int64
	reads   []QueryRead
	err     error
	closed  bool
}

// BeginSnap pins a query snapshot at the replica's current definitive
// index. The caller must Close it.
func (r *Replica) BeginSnap(ctx context.Context) (*QuerySnap, error) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return nil, ErrStopped
	}
	qIndex := r.lastTO
	// Pin the snapshot: versions at or above qIndex survive pruning for
	// as long as this snapshot is open.
	r.activeSnaps[qIndex]++
	// Per-class wait targets: the largest class index <= qIndex, captured
	// atomically with qIndex.
	targets := make(map[sproc.ClassID]int64, len(r.classLast))
	for c, idx := range r.classLast {
		targets[c] = idx
	}
	r.mu.Unlock()
	return &QuerySnap{r: r, ctx: ctx, qIndex: qIndex, targets: targets}, nil
}

// Close releases the snapshot's prune pin. Idempotent.
func (s *QuerySnap) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.r.mu.Lock()
	if s.r.activeSnaps[s.qIndex] <= 1 {
		delete(s.r.activeSnaps, s.qIndex)
	} else {
		s.r.activeSnaps[s.qIndex]--
	}
	s.r.mu.Unlock()
}

// OpenSnaps reports how many query snapshots currently pin versions
// against pruning.
func (r *Replica) OpenSnaps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.activeSnaps {
		n += c
	}
	return n
}

// Record hands the reads of a query that completed on this snapshot to
// the replica's history sink, if it has one. Call once, on success.
func (s *QuerySnap) Record() {
	if s.r.hist != nil {
		s.r.hist.RecordQuery(s.r.id, s.qIndex, s.reads)
	}
}

// Err reports the first read failure (cancellation, pruned snapshot).
func (s *QuerySnap) Err() error { return s.err }

// Read returns the snapshot value of a key in a class, waiting for the
// class's in-flight committable transactions when necessary.
func (s *QuerySnap) Read(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	if s.err != nil {
		return nil, false
	}
	part := storage.Partition(class)
	if s.r.qmode == DirtyQueries {
		v, ver, ok := s.r.store.GetVersioned(part, key)
		s.note(class, key, ver)
		return v, ok
	}
	if err := s.wait(part); err != nil {
		s.err = err
		return nil, false
	}
	v, ver, ok, err := s.r.store.SnapshotReadAt(part, key, s.qIndex)
	if err != nil {
		// ErrSnapshotPruned: the versions this query needs were discarded
		// (the query outlived its pin, a replica-level bug). Fail loudly
		// rather than serve an incomplete snapshot.
		s.err = err
		return nil, false
	}
	s.note(class, key, ver)
	return v, ok
}

// wait is Section 5's rule for one class: it returns once the last
// transaction of the class TO-delivered at or below qIndex has committed.
func (s *QuerySnap) wait(part storage.Partition) error {
	return s.r.waitCommitted(s.ctx, part, min(s.targets[sproc.ClassID(part)], s.qIndex))
}

// note keeps one read for Record, when there is a sink to record to.
func (s *QuerySnap) note(class sproc.ClassID, key storage.Key, ver int64) {
	if s.r.hist != nil {
		s.reads = append(s.reads, QueryRead{Class: class, Key: key, Version: ver})
	}
}

// queryCtx adapts a QuerySnap to sproc.QueryCtx.
type queryCtx struct {
	snap *QuerySnap
	args []storage.Value
}

var _ sproc.QueryCtx = (*queryCtx)(nil)

func (q *queryCtx) Args() []storage.Value { return q.args }

func (q *queryCtx) Read(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	return q.snap.Read(class, key)
}

// waitCommitted blocks until the partition's last committed index reaches
// target. Starvation freedom (Theorem 4.1) guarantees progress.
func (r *Replica) waitCommitted(ctx context.Context, part storage.Partition, target int64) error {
	if target == 0 || r.store.LastCommitted(part) >= target {
		return nil
	}
	defer context.AfterFunc(ctx, r.wakeWaiters)()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.store.LastCommitted(part) < target && !r.stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.commitCond.Wait()
	}
	if r.stopped {
		return ErrStopped
	}
	return nil
}

// RegisterWire makes the payload types the replica broadcasts known to
// the TCP transport.
func RegisterWire() {
	sproc.RegisterWire()
}
