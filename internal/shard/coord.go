package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"otpdb/internal/db"
	"otpdb/internal/metrics"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
)

// Coordinator errors.
var (
	// ErrAborted reports that the cross-shard transaction could not be
	// committed within the retry budget (validation conflicts, vote
	// timeouts, or resolver races).
	ErrAborted = errors.New("shard: cross-shard transaction aborted")
	// errCrashed is the test hooks' abandonment sentinel.
	errCrashed = errors.New("shard: coordinator crashed (test hook)")
)

// maxAttempts bounds commit attempts (each with a fresh XID and a
// re-executed phase 0) before Exec gives up with ErrAborted.
const maxAttempts = 8

// CoordConfig parameterises a Coordinator.
type CoordConfig struct {
	// VoteTimeout bounds the wait for every shard's prepare vote before
	// the coordinator proposes abort. It MUST stay below the hub's
	// ResolveAfter so a live coordinator always decides before the
	// resolver presumes it dead. Defaults to 3s.
	VoteTimeout time.Duration
	// Metrics, when non-nil, registers coordinator telemetry (vote
	// latency, cross-shard commits/aborts/retries) under the scope's
	// labels.
	Metrics *metrics.Scope
	// Trace, when non-nil, receives the coordinator's 2PC spans
	// (x-submit, prepare, vote, decide, x-commit/x-abort) and arms
	// cluster-wide trace IDs: every Exec mints one ID that rides the
	// prepare and decide requests into every touched shard, so each
	// site's local spans stitch into one tree.
	Trace *metrics.TraceRing
}

// ShardTO locates a cross-shard transaction in one shard's definitive
// order: the TO index of its prepare transaction there.
type ShardTO struct {
	Shard   int
	TOIndex int64
}

// Coordinator drives cross-shard transactions from this process: execute
// the procedure against local committed state (phase 0), prepare the
// captured read/write sets in every touched shard, collect votes, and
// decide at the home shard. It is an optimistic protocol — phase 0 runs
// without locks, and each shard's prepare validates the reads at its
// definitive position, so a conflicting interleaving surfaces as a NO
// vote and a retried attempt rather than as blocking.
type Coordinator struct {
	hub *Hub
	m   *Map
	reg *sproc.Registry
	cfg CoordConfig

	// Telemetry (inert unregistered instruments without cfg.Metrics).
	voteLat      *metrics.Histogram
	crossCommits *metrics.Counter
	crossAborts  *metrics.Counter
	crossRetries *metrics.Counter

	// CrashBeforeDecide, when set, is consulted after votes are
	// collected and before the decide is submitted; returning true
	// abandons the attempt (simulating a coordinator crash at the
	// classic 2PC in-doubt point). Test use only.
	CrashBeforeDecide func(XID) bool
	// CrashAfterHomeDecide abandons the attempt right after the home
	// decide commits (the decision is durable but unfanned). Test only.
	CrashAfterHomeDecide func(XID) bool
}

// NewCoordinator creates a coordinator over a hub, map and registry.
func NewCoordinator(h *Hub, m *Map, reg *sproc.Registry, cfg CoordConfig) *Coordinator {
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 3 * time.Second
	}
	return &Coordinator{
		hub: h, m: m, reg: reg, cfg: cfg,
		voteLat:      cfg.Metrics.Histogram("shard_vote_seconds"),
		crossCommits: cfg.Metrics.Counter("shard_cross_commit_total"),
		crossAborts:  cfg.Metrics.Counter("shard_cross_abort_total"),
		crossRetries: cfg.Metrics.Counter("shard_cross_retry_total"),
	}
}

// Exec runs a multi-class procedure whose classes span several shards,
// retrying aborted attempts with fresh phase-0 executions. The result's
// Shard is the home shard (the durable decision record's), its TOIndex
// the prepare's position there, its Outcome Retried when an earlier
// attempt was abandoned. The returned error is ErrAborted when the retry
// budget is exhausted.
func (c *Coordinator) Exec(ctx context.Context, proc string, args ...storage.Value) (Result, error) {
	start := time.Now()
	mu, err := c.reg.Multi(proc)
	if err != nil {
		return Result{}, err
	}
	split := c.m.Split(mu.Classes)
	if len(split) < 2 {
		return Result{}, fmt.Errorf("shard: %s is single-shard; submit it to its home group", proc)
	}
	// One trace ID per logical transaction, stable across retries; the
	// XID counter guarantees uniqueness per coordinating process.
	trace := ""
	if c.cfg.Trace != nil {
		trace = "t" + c.hub.NewXID().String()
	}
	c.cspan(trace, metrics.SpanXSubmit, proc)
	var lastErr error = ErrAborted
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res, err := c.tryOnce(ctx, mu, split, args, trace)
		if err == nil {
			res.Outcome = classify(attempt > 0, false)
			res.Latency = time.Since(start)
			res.Trace = trace
			c.crossCommits.Inc()
			c.cspan(trace, metrics.SpanXCommit, "")
			return res, nil
		}
		if errors.Is(err, errCrashed) || ctx.Err() != nil {
			return Result{}, err
		}
		c.crossRetries.Inc()
		lastErr = err
	}
	c.crossAborts.Inc()
	c.cspan(trace, metrics.SpanXAbort, lastErr.Error())
	return Result{}, lastErr
}

// cspan records one coordinator-side span under the transaction's
// cluster-wide trace ID. Shard -1 marks the coordinator itself (it
// acts across shards, from this site).
func (c *Coordinator) cspan(trace, span, note string) {
	if c.cfg.Trace == nil || trace == "" {
		return
	}
	c.cfg.Trace.Record(metrics.TraceEvent{
		Txn: trace, Trace: trace, Span: span,
		Site: int(c.hub.origin), Shard: -1, Note: note,
	})
}

// tryOnce runs one attempt: phase 0, prepares, votes, decide, collect.
func (c *Coordinator) tryOnce(ctx context.Context, mu sproc.MultiUpdate, split map[int][]sproc.ClassID, args []storage.Value, trace string) (Result, error) {
	xid := c.hub.NewXID()
	c.hub.markActive(xid)
	defer c.hub.unmarkActive(xid)

	// Phase 0: execute the procedure against this process's committed
	// view of every touched shard, capturing reads and buffering writes.
	pc := &phase0Ctx{c: c, classes: classSet(mu.Classes), args: args}
	val, err := mu.Fn(pc)
	if err != nil {
		return Result{}, err
	}
	if pc.err != nil {
		return Result{}, pc.err
	}

	shards := make([]int, 0, len(split))
	for s := range split {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	home := shards[0]

	// Prepare in every touched shard. The request carries the real
	// conflict classes; each shard's scheduler orders the prepare like
	// any transaction of those classes.
	type prepDone struct {
		shard int
		res   db.CommitResult
	}
	doneCh := make(chan prepDone, len(shards))
	for _, s := range shards {
		payload := prepPayload{
			XID:    xid,
			Shard:  s,
			Home:   home,
			Shards: shards,
			Reads:  ownedBy(c.m, s, pc.reads),
			Writes: ownedBy(c.m, s, pc.writes),
		}
		enc, err := encode(payload)
		if err != nil {
			return Result{}, err
		}
		req := sproc.Request{Proc: PrepareProc, Args: []storage.Value{enc}, Classes: split[s], Trace: trace}
		r := c.hub.localReplica(s)
		if r == nil {
			return Result{}, fmt.Errorf("shard: no live local replica of shard %d", s)
		}
		shard := s
		if _, err := r.SubmitRequest(req, func(res db.CommitResult) {
			doneCh <- prepDone{shard: shard, res: res}
		}); err != nil {
			return Result{}, err
		}
		c.cspan(trace, metrics.SpanPrepare, fmt.Sprintf("shard=%d xid=%v", s, xid))
	}

	// Collect votes; silence past the timeout proposes abort — a shard
	// that never votes (partition, dead replica) must not hold every
	// other shard's classes hostage.
	verdict := VerdictAbort
	voteStart := time.Now()
	if c.hub.waitVotes(ctx.Done(), xid, shards, c.cfg.VoteTimeout) {
		verdict = VerdictCommit
	}
	c.voteLat.Observe(time.Since(voteStart))
	c.cspan(trace, metrics.SpanVote, verdict.String())

	if hook := c.CrashBeforeDecide; hook != nil && hook(xid) {
		return Result{}, errCrashed
	}

	// Decide at the home shard. First-wins ordering there arbitrates
	// against a racing resolver; whatever the record says is the
	// verdict everywhere.
	winner, err := c.decide(ctx, xid, home, verdict, trace)
	if err != nil {
		return Result{}, err
	}
	c.cspan(trace, metrics.SpanDecide, winner.String())

	if hook := c.CrashAfterHomeDecide; hook != nil && hook(xid) {
		return Result{}, errCrashed
	}

	// Collect the prepares' commits for the per-shard TO positions.
	// Each prepare commits once its local hub observes the decide; cap
	// the wait so a lost replica cannot wedge the client.
	timer := time.NewTimer(c.cfg.VoteTimeout + c.hub.resolveAfter)
	defer timer.Stop()
	tos := make([]ShardTO, 0, len(shards))
	for range shards {
		select {
		case d := <-doneCh:
			if d.res.Err != nil {
				return Result{}, d.res.Err
			}
			tos = append(tos, ShardTO{Shard: d.shard, TOIndex: d.res.Info.TOIndex})
		case <-timer.C:
			return Result{}, fmt.Errorf("shard: %v: prepare commit wait timed out", xid)
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	sort.Slice(tos, func(i, j int) bool { return tos[i].Shard < tos[j].Shard })

	if winner != VerdictCommit {
		return Result{}, fmt.Errorf("%w: %v", ErrAborted, xid)
	}
	// tos ascends by shard and home is the smallest: tos[0] is home's.
	return Result{Value: val, TOIndex: tos[0].TOIndex, Shard: home, ShardTO: tos}, nil
}

// decide submits the verdict proposal to the home shard and returns the
// first-wins winner from the committed record. The decide request
// carries the transaction's trace ID so the home shard's replicas span
// it like any traced transaction.
func (c *Coordinator) decide(ctx context.Context, xid XID, home int, v Verdict, trace string) (Verdict, error) {
	enc, err := encode(decidePayload{XID: xid, Verdict: v})
	if err != nil {
		return VerdictNone, err
	}
	r := c.hub.localReplica(home)
	if r == nil {
		return VerdictNone, fmt.Errorf("shard: no live local replica of home shard %d", home)
	}
	req := sproc.Request{Proc: DecideProc, Args: []storage.Value{enc}, Trace: trace}
	ch := make(chan db.CommitResult, 1)
	id, err := r.SubmitRequest(req, func(res db.CommitResult) { ch <- res })
	if err != nil {
		return VerdictNone, err
	}
	select {
	case res := <-ch:
		if res.Err != nil {
			return VerdictNone, res.Err
		}
		return decodeVerdict(res.Info.Value), nil
	case <-ctx.Done():
		r.Forget(id)
		return VerdictNone, ctx.Err()
	}
}

func classSet(cs []sproc.ClassID) map[sproc.ClassID]bool {
	m := make(map[sproc.ClassID]bool, len(cs))
	for _, c := range cs {
		m[c] = true
	}
	return m
}

// phase0Ctx implements sproc.MultiUpdateCtx for the coordinator's local
// phase-0 execution: reads come from the local replicas' committed
// stores (first read of a key is cached — repeatable reads within the
// attempt), writes are buffered with read-your-writes. Every captured
// value is copied, since stores recycle nothing but procedures may alias.
type phase0Ctx struct {
	c       *Coordinator
	classes map[sproc.ClassID]bool
	args    []storage.Value
	reads   []RW
	writes  []RW
	cache   map[string]RW // class\x00key -> captured read or buffered write
	err     error
}

var _ sproc.MultiUpdateCtx = (*phase0Ctx)(nil)

func (p *phase0Ctx) Args() []storage.Value { return p.args }

func cacheKey(class sproc.ClassID, key storage.Key) string {
	return string(class) + "\x00" + string(key)
}

func (p *phase0Ctx) Read(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	if p.err != nil {
		return nil, false
	}
	if !p.classes[class] {
		p.err = fmt.Errorf("shard: phase-0 read of undeclared class %q", class)
		return nil, false
	}
	if rw, ok := p.cache[cacheKey(class, key)]; ok {
		return copyVal(rw.Value), rw.Present
	}
	r := p.c.hub.localReplica(p.c.m.Locate(class))
	if r == nil {
		p.err = fmt.Errorf("shard: no live local replica for class %q", class)
		return nil, false
	}
	v, ok := r.Store().Get(storage.Partition(class), key)
	rw := RW{Class: class, Key: key, Value: copyVal(v), Present: ok}
	p.reads = append(p.reads, rw)
	if p.cache == nil {
		p.cache = make(map[string]RW)
	}
	p.cache[cacheKey(class, key)] = rw
	return copyVal(v), ok
}

func (p *phase0Ctx) Write(class sproc.ClassID, key storage.Key, v storage.Value) error {
	if p.err != nil {
		return p.err
	}
	if !p.classes[class] {
		p.err = fmt.Errorf("shard: phase-0 write of undeclared class %q", class)
		return p.err
	}
	rw := RW{Class: class, Key: key, Value: copyVal(v), Present: true}
	if p.cache == nil {
		p.cache = make(map[string]RW)
	}
	p.cache[cacheKey(class, key)] = rw
	// Last write per key wins in the shipped write set.
	for i := range p.writes {
		if p.writes[i].Class == class && p.writes[i].Key == key {
			p.writes[i] = rw
			return nil
		}
	}
	p.writes = append(p.writes, rw)
	return nil
}

// ownedBy filters captured reads or buffered writes down to one shard's
// classes.
func ownedBy(m *Map, shard int, rws []RW) []RW {
	var out []RW
	for _, rw := range rws {
		if m.Locate(rw.Class) == shard {
			out = append(out, rw)
		}
	}
	return out
}

func copyVal(v storage.Value) storage.Value {
	if v == nil {
		return nil
	}
	out := make(storage.Value, len(v))
	copy(out, v)
	return out
}
