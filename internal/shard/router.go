package shard

import (
	"context"
	"fmt"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/db"
	"otpdb/internal/member"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
)

// Outcome classifies how the optimistic protocol handled a committed
// transaction at the submitting site.
type Outcome int

// Outcomes.
const (
	// FastPath means the tentative order was confirmed as-is: the
	// transaction executed once, in the position it was Opt-delivered,
	// and committed the moment the definitive order arrived. This is the
	// common case the paper's throughput argument rests on. A cross-shard
	// transaction is FastPath when its first attempt committed.
	FastPath Outcome = iota + 1
	// Reordered means TO-delivery moved the transaction ahead of pending
	// transactions in one of its class queues — its definitive position
	// contradicted the tentative one (Correctness Check, CC10).
	Reordered
	// Retried means the transaction's optimistic execution was undone by
	// the Correctness Check and redone in the definitive order (CC8), or
	// — for a cross-shard transaction — earlier attempts aborted on
	// validation before one committed.
	Retried
)

func (o Outcome) String() string {
	switch o {
	case FastPath:
		return "fastpath"
	case Reordered:
		return "reordered"
	case Retried:
		return "retried"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// classify is the one place a commit's protocol path gets its name.
func classify(retried, reordered bool) Outcome {
	switch {
	case retried:
		return Retried
	case reordered:
		return Reordered
	}
	return FastPath
}

// Result is what every committed update transaction resolves to, however
// it was routed. otpdb.Result is this type; otpd's "OK ..." reply line is
// its rendering.
type Result struct {
	// Value is the stored procedure's return value (may be nil).
	Value storage.Value
	// TOIndex is the transaction's definitive total-order index; every
	// site commits conflicting transactions in ascending TOIndex order
	// within a shard group. For a cross-shard transaction it is the
	// prepare's index at the home shard; ShardTO lists every shard's.
	TOIndex int64
	// Outcome reports which protocol path the transaction took.
	Outcome Outcome
	// Latency is the submit-to-local-commit time observed at the
	// submitting site.
	Latency time.Duration
	// Shard is the shard group that ordered the transaction (the home
	// shard, holding the durable decision record, for a cross-shard
	// transaction). Always 0 in a single-shard deployment.
	Shard int
	// ShardTO lists a cross-shard transaction's definitive position in
	// every shard it touched, ascending by shard; nil for single-shard
	// transactions.
	ShardTO []ShardTO
	// Trace is a cross-shard transaction's cluster-wide trace ID (empty
	// for single-shard transactions and untraced coordinators); TRACE
	// <id> stitches the spans every touched site recorded under it.
	Trace string
}

// Local resolves one shard's stack at this site at the moment of use:
// the replica and its membership tracker, either nil while the site is
// down or still joining. The replica half is what Hub.Attach is given.
type Local func() (*db.Replica, *member.Tracker)

// Router is one site's client entry: the path a transaction takes from a
// client's call (a Session method, an otpd protocol line) to the class
// queues of the replica — or the coordinator — that orders it.
type Router struct {
	reg    *sproc.Registry
	m      *Map
	coord  *Coordinator
	locals []Local // by shard
}

// NewRouter creates the router of a site hosting one replica per shard
// of m; locals[g] resolves shard g's.
func NewRouter(reg *sproc.Registry, m *Map, coord *Coordinator, locals []Local) *Router {
	return &Router{reg: reg, m: m, coord: coord, locals: locals}
}

// local resolves shard g's stack, or explains why it cannot serve.
func (r *Router) local(g int) (*db.Replica, *member.Tracker, error) {
	rep, tr := r.locals[g]()
	if rep == nil || tr == nil {
		return nil, nil, fmt.Errorf("shard %d still joining", g)
	}
	return rep, tr, nil
}

// Submit TO-broadcasts an update transaction and returns without waiting
// for its commit; done is called exactly once with the outcome. A
// procedure whose classes live in one shard goes to that shard's local
// replica (done runs on a protocol goroutine and must not block), and the
// returned id and shard identify it there. A procedure spanning shards is
// driven by the cross-shard coordinator in the background, bounded by the
// coordinator's own vote and resolve timeouts; it has no single broadcast
// identity, so the id is zero and the shard -1. An error means nothing
// was broadcast and done will not be called.
func (r *Router) Submit(proc string, args []storage.Value, done func(Result, error)) (abcast.MsgID, int, error) {
	classes, err := r.reg.UpdateClasses(proc)
	if err != nil {
		return abcast.MsgID{}, 0, err
	}
	g, ok := r.m.single(classes)
	if !ok {
		go func() { done(r.coord.Exec(context.Background(), proc, args...)) }()
		return abcast.MsgID{}, -1, nil
	}
	rep, _, err := r.local(g)
	if err != nil {
		return abcast.MsgID{}, 0, err
	}
	start := time.Now()
	id, err := rep.SubmitNotify(proc, args, func(cr db.CommitResult) {
		if cr.Err != nil {
			done(Result{}, cr.Err)
			return
		}
		done(Result{
			Value:   cr.Info.Value,
			TOIndex: cr.Info.TOIndex,
			Outcome: classify(cr.Info.Retried, cr.Info.Reordered),
			Latency: time.Since(start),
			Shard:   g,
		}, nil)
	})
	return id, g, err
}

// Query runs a read-only stored procedure locally, against a consistent
// multi-version snapshot (Section 5). In a sharded deployment it holds
// one pinned snapshot per shard the procedure actually reads, opened at
// the first read of one of the shard's classes and released when the
// procedure returns: reads within a shard see one committed prefix, the
// shards' snapshots are pinned independently (per-shard snapshot
// isolation — there is no global cross-shard snapshot index).
func (r *Router) Query(ctx context.Context, proc string, args ...storage.Value) (storage.Value, error) {
	if len(r.locals) == 1 {
		rep, _, err := r.local(0)
		if err != nil {
			return nil, err
		}
		return rep.Query(ctx, proc, args...)
	}
	q, err := r.reg.Query(proc)
	if err != nil {
		return nil, err
	}
	mq := &multiQueryCtx{r: r, ctx: ctx, args: args, snaps: make(map[int]*db.QuerySnap)}
	defer mq.close()
	res, err := q.Fn(mq)
	if err == nil {
		err = mq.err
	}
	if err != nil {
		return nil, err
	}
	for _, snap := range mq.snaps {
		snap.Record()
	}
	return res, nil
}

// multiQueryCtx adapts per-shard QuerySnaps to sproc.QueryCtx, routing
// each read to the snapshot of the shard group owning its class.
type multiQueryCtx struct {
	r     *Router
	ctx   context.Context
	args  []storage.Value
	snaps map[int]*db.QuerySnap
	err   error
}

func (m *multiQueryCtx) Args() []storage.Value { return m.args }

func (m *multiQueryCtx) Read(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	if m.err != nil {
		return nil, false
	}
	g := m.r.m.Locate(class)
	snap := m.snaps[g]
	if snap == nil {
		rep, _, err := m.r.local(g)
		if err == nil {
			snap, err = rep.BeginSnap(m.ctx)
		}
		if err != nil {
			m.err = err
			return nil, false
		}
		m.snaps[g] = snap
	}
	v, ok := snap.Read(class, key)
	if m.err = snap.Err(); m.err != nil {
		return nil, false
	}
	return v, ok
}

func (m *multiQueryCtx) close() {
	for _, snap := range m.snaps {
		snap.Close()
	}
}

// ProposeMemberIn commits a membership change through shard g's
// definitive order: the successor is derived by mutate from this site's
// current configuration of that group (mutate also learns the shard, for
// deployments where a site's address differs per group) and executed as
// the reserved change procedure. The commit of that transaction is the
// epoch switch at every site. A concurrent change loses the
// definitive-order race and surfaces member.ErrEpochConflict; retry
// against the new configuration. It returns the committed configuration
// and its definitive index.
func (r *Router) ProposeMemberIn(ctx context.Context, g int,
	mutate func(g int, cur member.Config) (member.Config, error)) (member.Config, int64, error) {
	rep, tr, err := r.local(g)
	if err != nil {
		return member.Config{}, 0, err
	}
	next, err := mutate(g, tr.Config())
	if err != nil {
		return member.Config{}, 0, err
	}
	info, err := rep.Exec(ctx, member.Proc, member.Encode(next))
	if err != nil {
		return member.Config{}, 0, err
	}
	return next, info.TOIndex, nil
}

// ProposeMember commits a site-level membership change: through every
// shard group, in shard order, stopping at the first failure (reported
// with its shard). It returns shard 0's committed configuration and
// definitive index.
func (r *Router) ProposeMember(ctx context.Context,
	mutate func(g int, cur member.Config) (member.Config, error)) (first member.Config, firstTO int64, err error) {
	for g := range r.locals {
		next, to, err := r.ProposeMemberIn(ctx, g, mutate)
		if err != nil {
			return member.Config{}, 0, fmt.Errorf("shard %d: %w", g, err)
		}
		if g == 0 {
			first, firstTO = next, to
		}
	}
	return first, firstTO, nil
}
