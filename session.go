package otpdb

import (
	"context"
	"fmt"

	"otpdb/internal/abcast"
	"otpdb/internal/shard"
)

// TxnID identifies a submitted update transaction network-wide within its
// shard group: the originating site plus a per-origin sequence number.
type TxnID = abcast.MsgID

// ShardTO locates a cross-shard transaction in one shard's definitive
// order: the TO index of its prepare transaction there (re-exported from
// internal/shard).
type ShardTO = shard.ShardTO

// Outcome classifies how the optimistic protocol handled a committed
// transaction at the submitting site: FastPath, Reordered or Retried
// (re-exported from internal/shard).
type Outcome = shard.Outcome

// Outcomes.
const (
	// FastPath means the tentative order was confirmed as-is: the
	// transaction executed once, in the position it was Opt-delivered,
	// and committed the moment the definitive order arrived.
	FastPath = shard.FastPath
	// Reordered means TO-delivery moved the transaction ahead of pending
	// transactions in one of its class queues (Correctness Check, CC10).
	Reordered = shard.Reordered
	// Retried means the optimistic execution was undone by the
	// Correctness Check and redone in the definitive order (CC8), or —
	// for a cross-shard transaction — earlier attempts aborted on
	// validation before one committed.
	Retried = shard.Retried
)

// Result is the typed outcome of a committed update transaction: the
// procedure's Value, the definitive TOIndex, the Outcome, the
// submit-to-local-commit Latency, the ordering Shard, and for a
// cross-shard transaction its per-shard positions (ShardTO) and
// cluster-wide Trace id (re-exported from internal/shard; it is the value
// cmd/otpd renders as an "OK ..." line).
type Result = shard.Result

// Handle is the future of an in-flight update transaction submitted with
// Session.SubmitAsync. It resolves when the transaction commits at the
// submitting site (which fixes its definitive order everywhere) or when
// it terminally fails. Handles are safe for concurrent use.
type Handle struct {
	id    TxnID
	site  int
	shard int // owning shard group, or -1 for cross-shard

	done chan struct{}
	res  Result
	err  error
}

// ID returns the transaction's broadcast identifier within its shard
// group, usable to correlate the transaction across sites (e.g. in
// commit logs and histories). Cross-shard transactions span groups and
// return the zero TxnID.
func (h *Handle) ID() TxnID { return h.id }

// Site returns the submitting site.
func (h *Handle) Site() int { return h.site }

// Shard returns the shard group the transaction was routed to, or -1 for
// a cross-shard transaction.
func (h *Handle) Shard() int { return h.shard }

// Done returns a channel closed when the handle is resolved. After Done
// is closed, Result returns immediately.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Resolved reports whether the handle has already resolved (non-blocking).
func (h *Handle) Resolved() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// Result blocks until the transaction commits locally (or terminally
// fails) and returns its typed outcome. Use Wait to bound the block with
// a context.
func (h *Handle) Result() (Result, error) {
	<-h.done
	return h.res, h.err
}

// Wait blocks until the handle resolves or ctx is cancelled. Abandoning
// the wait does not affect the transaction — broadcast is irrevocable and
// the handle can still be waited on again later.
func (h *Handle) Wait(ctx context.Context) (Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// resolve is the router's completion callback, invoked exactly once.
func (h *Handle) resolve(res Result, err error) {
	h.res, h.err = res, err
	close(h.done)
}

// Call names one procedure invocation of a batch.
type Call struct {
	// Proc is the registered update procedure name.
	Proc string
	// Args are the invocation arguments.
	Args []Value
}

// Session is a client attachment to one site of the cluster. It is the
// primary data interface: synchronous Exec with typed results, pipelined
// SubmitAsync returning transaction handles, amortized ExecBatch, and
// local snapshot queries. Sessions are safe for concurrent use and cheap
// to share; all sessions of a site observe the same replicas. A session
// is bound to the site, not to one incarnation of it: after
// Cluster.RestartSite the same session transparently talks to the
// site's new replicas. With WithShards the session routes each
// transaction to the shard group owning its classes; a transaction
// spanning shards runs the two-phase cross-shard protocol.
type Session struct {
	site   int
	router *shard.Router // this site's client path into every shard group
}

// Session returns the client session bound to the given site. The cluster
// must be started.
func (c *Cluster) Session(site int) (*Session, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.replicaLocked(0, site); err != nil {
		return nil, err
	}
	return c.sessions[site], nil
}

// Site returns the session's site index.
func (s *Session) Site() int { return s.site }

// SubmitAsync TO-broadcasts an update transaction and returns its handle
// without waiting for the commit. Clients pipeline by keeping many
// handles in flight and resolving them later; the broadcast layer orders
// all of them regardless of when (or whether) the handles are awaited.
// A transaction whose classes span shard groups is driven by the
// cross-shard coordinator instead; its handle resolves when the decision
// is committed in every shard it touched.
func (s *Session) SubmitAsync(proc string, args ...Value) (*Handle, error) {
	h := &Handle{site: s.site, done: make(chan struct{})}
	id, g, err := s.router.Submit(proc, args, h.resolve)
	if err != nil {
		return nil, err
	}
	h.id, h.shard = id, g
	return h, nil
}

// Exec submits an update transaction and waits until it commits at this
// session's site, returning the procedure's value and ordering metadata.
// Committing at the submitting site implies the definitive order is
// fixed; all other sites commit the same transaction in the same relative
// order. On ctx cancellation the wait is abandoned but the transaction
// still commits everywhere — broadcast is irrevocable.
func (s *Session) Exec(ctx context.Context, proc string, args ...Value) (Result, error) {
	h, err := s.SubmitAsync(proc, args...)
	if err != nil {
		return Result{}, err
	}
	return h.Wait(ctx)
}

// ExecBatch submits every call before resolving any of them, amortizing
// the broadcast round-trips over the whole batch, then waits for all
// commits. Results are returned in call order. On error (including ctx
// cancellation) the already-broadcast tail still commits everywhere.
func (s *Session) ExecBatch(ctx context.Context, calls []Call) ([]Result, error) {
	handles := make([]*Handle, 0, len(calls))
	for i, call := range calls {
		h, err := s.SubmitAsync(call.Proc, call.Args...)
		if err != nil {
			return nil, fmt.Errorf("otpdb: batch call %d (%s): %w", i, call.Proc, err)
		}
		handles = append(handles, h)
	}
	results := make([]Result, len(handles))
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("otpdb: batch call %d (%s): %w", i, calls[i].Proc, err)
		}
		results[i] = res
	}
	return results, nil
}

// Query runs a read-only stored procedure locally at the session's site,
// against a consistent multi-version snapshot (Section 5). Queries never
// block updates. With WithShards the query holds one pinned snapshot per
// shard group it touches, opened lazily at first read: reads within a
// shard see a consistent committed prefix, while the per-shard snapshots
// are pinned independently (per-shard snapshot isolation — there is no
// global cross-shard snapshot index).
func (s *Session) Query(ctx context.Context, proc string, args ...Value) (Value, error) {
	return s.router.Query(ctx, proc, args...)
}
