package db

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/otp"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
	"otpdb/internal/wal"
)

// executor runs stored procedures on behalf of the OTP scheduler, each
// attempt on one of its worker goroutines. Workers are long-lived: one
// that has finished an attempt parks on the work channel and takes the
// next, so the stack a procedure grew is there for the one after it.
// Submit starts a worker only when none is parked. A procedure blocked on
// its simulated cost, on Definitive() or on a partition therefore never
// holds up an attempt of another class — there are always as many
// workers as attempts in flight, as when every attempt had a goroutine
// of its own — and workers leave when the replica stops.
//
// Single-class procedures (the paper's model) and multi-class procedures
// (the [13] extension) share the same machinery; the storage transaction
// simply spans one or more partitions. The tricky part is the abort
// path: the scheduler may abort a transaction while its worker is
// mid-procedure, so every data access is guarded by the attempt's lock
// and an aborted flag, and completions of superseded attempts are fenced
// by epochs both here and in the scheduler.
//
// The scheduler recycles MultiTxn structs after commit, so the executor
// copies everything an attempt needs (ID, classes, payload) out of the
// transaction while Submit holds it live; a worker never dereferences
// the MultiTxn.
type executor struct {
	r *Replica

	// work hands an attempt to a parked worker. Unbuffered: a send that
	// does not find a worker receiving must start one, not queue behind
	// a procedure that may be blocked.
	work chan *attempt

	mu           sync.Mutex
	running      map[abcast.MsgID]*attempt
	abortedBelow map[abcast.MsgID]int  // min acceptable epoch per transaction
	toDelivered  map[abcast.MsgID]bool // own TO-delivery seen, not yet committed
}

var _ otp.MultiExecutor = (*executor)(nil)

// attempt is one execution attempt of a transaction and everything the
// execution needs: the storage transaction, the context handed to the
// procedure, the abort signal. Attempts are pooled: the executor map and
// the worker running it each hold one reference, and the last release
// returns the struct — with the buffers of all of the above — to the pool,
// so an attempt in the steady state allocates nothing.
type attempt struct {
	exec  *executor
	id    abcast.MsgID
	parts []storage.Partition
	req   sproc.Request
	epoch int
	// abortCh is closed (under mu) when the scheduler aborts the attempt.
	// Aborts are rare, so the channel usually outlives the attempt unclosed
	// and serves the struct's next one.
	abortCh chan struct{}
	// toCh is closed (under executor.mu) once the transaction's own
	// TO-delivery reaches a running attempt: the definitive position is
	// fixed and, because the attempt heads all its class queues, no later
	// delivery can displace it. Exposed as sproc.TxnControl.Definitive, and
	// made only for a procedure that asks (definitive); toClosed is the
	// fact itself.
	toCh     chan struct{}
	toClosed bool // guarded by executor.mu
	refs     atomic.Int32

	mu      sync.Mutex
	txn     storage.MultiTxn
	stx     *storage.MultiTxn // &txn while the attempt holds its partitions
	result  storage.Value     // procedure return value, set when the body completes
	aborted bool

	// The context of the procedure body, whichever kind it is.
	uctx updateCtx
	mctx multiUpdateCtx
}

// attemptPool recycles attempt structs across transactions and retries.
var attemptPool = sync.Pool{New: func() any { return new(attempt) }}

// closedCh is what Definitive returns for an attempt that is definitive
// already.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// newAttempt prepares a pooled attempt for one execution, with two
// references (executor map + worker).
func (e *executor) newAttempt(id abcast.MsgID, classes []otp.ClassID, req sproc.Request, epoch int) *attempt {
	att := attemptPool.Get().(*attempt)
	att.exec = e
	att.id = id
	att.parts = att.parts[:0]
	for _, c := range classes {
		att.parts = append(att.parts, storage.Partition(c))
	}
	att.req = req
	att.epoch = epoch
	if att.abortCh == nil {
		att.abortCh = make(chan struct{})
	}
	att.refs.Store(2)
	return att
}

// release drops one reference and recycles the attempt when both the
// executor map and the worker are done with it. What the next transaction
// must not see goes: the request, the result, a closed abort channel, and
// the definitive channel, which a procedure may have handed on. parts and
// the storage transaction keep their arrays.
func (a *attempt) release() {
	if a.refs.Add(-1) == 0 {
		a.req = sproc.Request{}
		a.result = nil
		a.stx = nil
		if a.aborted {
			a.abortCh, a.aborted = nil, false
		}
		a.toCh = nil // toClosed is set by Submit
		a.uctx, a.mctx = updateCtx{}, multiUpdateCtx{}
		attemptPool.Put(a)
	}
}

// definitive implements sproc.TxnControl.Definitive for the attempt's
// contexts.
func (a *attempt) definitive() <-chan struct{} {
	a.exec.mu.Lock()
	defer a.exec.mu.Unlock()
	if a.toClosed {
		return closedCh
	}
	if a.toCh == nil {
		a.toCh = make(chan struct{})
	}
	return a.toCh
}

// markDefinitive records that the attempt's position is fixed. Callers
// hold executor.mu.
func (a *attempt) markDefinitive() {
	if !a.toClosed {
		a.toClosed = true
		if a.toCh != nil {
			close(a.toCh)
		}
	}
}

func newExecutor(r *Replica) *executor {
	return &executor{
		r:            r,
		work:         make(chan *attempt),
		running:      make(map[abcast.MsgID]*attempt),
		abortedBelow: make(map[abcast.MsgID]int),
		toDelivered:  make(map[abcast.MsgID]bool),
	}
}

// Submit implements otp.MultiExecutor. It captures everything the worker
// needs out of tx before returning (the scheduler may recycle tx once
// the transaction commits).
func (e *executor) Submit(tx *otp.MultiTxn, epoch int) {
	req, ok := tx.Payload.(sproc.Request)
	if !ok {
		e.r.failWaiter(tx.ID, fmt.Errorf("db: malformed payload %T", tx.Payload))
		// The transaction stays queued but never reports execution; the
		// protocol treats malformed payloads as fatal to the submitter
		// only (matches the previous behaviour).
		return
	}
	e.mu.Lock()
	if epoch < e.abortedBelow[tx.ID] || tx.Committed() {
		// A racing abort already superseded this submission; the
		// scheduler will resubmit with a fresh epoch — or has, and the
		// transaction has even committed since, which took the epoch fence
		// away (Commit). An attempt started now would run the body a
		// second time and hold its partitions for good.
		e.mu.Unlock()
		return
	}
	att := e.newAttempt(tx.ID, tx.Classes, req, epoch)
	// A transaction TO-delivered before reaching the head of its queues
	// starts out definitive.
	att.toClosed = e.toDelivered[tx.ID]
	e.running[tx.ID] = att
	e.mu.Unlock()
	select {
	case e.work <- att:
	default:
		go e.worker(att)
	}
}

// worker runs att and then whatever Submit hands it, until the replica
// stops. A worker started after the stop runs its one attempt — the
// scheduler may still be finishing a commit — and leaves.
func (e *executor) worker(att *attempt) {
	for {
		e.runTxn(att)
		select {
		case att = <-e.work:
		case <-e.r.stop:
			return
		}
	}
}

// Abort implements otp.MultiExecutor: it undoes the transaction's effects
// and fences the attempt so a still-running procedure stops at its next
// data access. tx.Epoch() is already the post-abort epoch.
func (e *executor) Abort(tx *otp.MultiTxn) {
	e.mu.Lock()
	if tx.Epoch() > e.abortedBelow[tx.ID] {
		e.abortedBelow[tx.ID] = tx.Epoch()
	}
	att := e.running[tx.ID]
	delete(e.running, tx.ID)
	e.mu.Unlock()
	if att == nil {
		return
	}
	att.mu.Lock()
	if !att.aborted {
		att.aborted = true
		close(att.abortCh)
		if att.stx != nil {
			_ = att.stx.Abort()
		}
	}
	att.mu.Unlock()
	att.release()
}

// Commit implements otp.MultiExecutor: the procedure has finished and the
// definitive order is confirmed, so install the writes as versions
// labelled with the transaction's TO index.
func (e *executor) Commit(tx *otp.MultiTxn) {
	e.mu.Lock()
	att := e.running[tx.ID]
	delete(e.running, tx.ID)
	delete(e.abortedBelow, tx.ID)
	delete(e.toDelivered, tx.ID)
	e.mu.Unlock()
	if att == nil || att.stx == nil {
		// Protocol invariant: commit follows a completed execution.
		panic(fmt.Sprintf("db: commit of %v without a completed attempt", tx.ID))
	}
	var readSet, writeSet []storage.ClassKey
	if e.r.hist != nil {
		readSet, writeSet = att.stx.ReadSet(), att.stx.WriteSet()
	}
	if d := e.r.dur; d != nil {
		// Write-ahead: the commit record reaches the log (and, under the
		// per-commit sync policy, stable storage) before the writes are
		// installed and before the submitting client is acknowledged.
		rec := wal.Record{TOIndex: tx.TOIndex(), Writes: att.stx.PendingWrites()}
		if err := d.Append(rec); err != nil {
			e.r.mu.Lock()
			stopped := e.r.stopped
			e.r.mu.Unlock()
			if !stopped {
				panic(fmt.Sprintf("db: WAL append of %v: %v", tx.ID, err))
			}
			// Racing shutdown closed the log; the in-memory commit still
			// proceeds so the scheduler's invariants hold.
		}
	}
	if e.r.hist != nil {
		// Before the commit lets go of the partitions: the next transaction
		// of the class may begin, execute and commit on another goroutine
		// the moment it does, and the history is read in recording order.
		classes := make([]sproc.ClassID, len(tx.Classes))
		for i, c := range tx.Classes {
			classes[i] = sproc.ClassID(c)
		}
		e.r.hist.RecordUpdate(e.r.id, tx.ID, classes, tx.TOIndex(), readSet, writeSet)
	}
	if err := att.stx.Commit(tx.TOIndex()); err != nil {
		panic(fmt.Sprintf("db: commit of %v: %v", tx.ID, err))
	}
	result := att.result
	if hook := e.r.cfgHook; hook != nil && result != nil {
		// A committed group-configuration command: apply it before the
		// submitter is acknowledged, so membership side effects (quorum,
		// peer set, detector targets) are in place when Exec returns.
		for _, c := range tx.Classes {
			if sproc.ClassID(c) == e.r.cfgClass {
				hook(result, tx.TOIndex())
				break
			}
		}
	}
	// Hand the submitting client its typed outcome now that the writes
	// are installed. (A failing procedure already resolved the waiter
	// with its error; resolveWaiter is then a no-op.)
	att.release()
	e.r.resolveWaiter(tx.ID, CommitResult{Info: CommitInfo{
		Value:     result,
		TOIndex:   tx.TOIndex(),
		Retried:   tx.Aborts() > 0,
		Reordered: tx.Reordered(),
	}})
}

// markTO records the transaction's own TO-delivery and, if an attempt is
// currently running, fixes it as definitive (closes its toCh). Invoked
// from the scheduler's OnTODelivered hook (under the manager lock — keep
// this fast, no callbacks into the manager). A running attempt heads all
// of its class queues, so everything ahead of it has committed at lower
// TO indexes: the transaction's own delivery cannot displace it, and any
// later delivery orders behind it — the attempt is stable. An attempt
// submitted after the flag is set starts out definitive (see Submit).
func (e *executor) markTO(id abcast.MsgID) {
	e.mu.Lock()
	e.toDelivered[id] = true
	if att := e.running[id]; att != nil {
		att.markDefinitive()
	}
	e.mu.Unlock()
}

// runTxn executes one attempt of a stored procedure. It works purely
// from the attempt's captured state — never from the scheduler's
// (recyclable) MultiTxn.
func (e *executor) runTxn(att *attempt) {
	defer att.release()

	// Resolve the procedure and its simulated cost.
	var cost time.Duration
	up, err := e.r.reg.Update(att.req.Proc)
	var mu sproc.MultiUpdate
	if err == nil {
		cost = up.Cost
	} else if mu, err = e.r.reg.Multi(att.req.Proc); err == nil {
		cost = mu.Cost
	} else {
		e.r.failWaiter(att.id, err)
		return
	}

	if !e.begin(att) {
		return // the scheduler aborted this attempt
	}

	// Simulated service time, interruptible by abort.
	if cost > 0 {
		transport.Dwell(cost, att.abortCh)
		select {
		case <-att.abortCh:
			return
		default:
		}
	}

	var val storage.Value
	var perr error
	if up.Fn != nil {
		att.uctx = updateCtx{att: att, class: storage.Partition(up.Class), args: att.req.Args}
		if val, perr = up.Fn(&att.uctx); perr == nil {
			perr = att.uctx.err
		}
	} else {
		att.mctx = multiUpdateCtx{att: att, args: att.req.Args}
		if val, perr = mu.Fn(&att.mctx); perr == nil {
			perr = att.mctx.err
		}
	}
	if perr != nil {
		if perr == errAborted {
			// Aborted mid-procedure; the scheduler already knows.
			return
		}
		// A failing procedure is a programming error (procedures must be
		// deterministic and total). Keep the protocol live: commit an
		// empty transaction and report the error to the submitter.
		att.mu.Lock()
		failed := !att.aborted
		if failed {
			_ = att.stx.Abort()
			att.stx = nil
		}
		att.mu.Unlock()
		if failed && !e.begin(att) {
			return // aborted while waiting
		}
		e.r.failWaiter(att.id, perr)
		val = nil
	}

	att.mu.Lock()
	att.result = val
	aborted := att.aborted
	att.mu.Unlock()
	if !aborted {
		e.r.mgr.OnExecuted(att.id, att.epoch)
	}
}

// begin acquires the attempt's partitions and reports whether the attempt
// holds them. A superseded attempt of an overlapping class may hold one
// for a moment while its abort races; begin parks on the partition's
// release channel until it frees (or this attempt is itself aborted) — no
// polling, and outside att.mu: a racing Abort must be able to close
// abortCh while it parks.
func (e *executor) begin(att *attempt) bool {
	if e.r.store.BeginMultiWait(&att.txn, att.parts, att.abortCh) != nil {
		return false
	}
	att.mu.Lock()
	defer att.mu.Unlock()
	if att.aborted {
		_ = att.txn.Abort()
		return false
	}
	att.stx = &att.txn
	return true
}

// errAborted is the sentinel recorded when an access hits an aborted
// attempt; the procedure should return promptly (writes fail).
var errAborted = fmt.Errorf("db: transaction aborted by correctness check")

// updateCtx implements sproc.UpdateCtx (single class, unqualified keys)
// with abort fencing.
type updateCtx struct {
	att   *attempt
	class storage.Partition
	args  []storage.Value
	err   error
}

var _ sproc.UpdateCtx = (*updateCtx)(nil)
var _ sproc.TxnControl = (*updateCtx)(nil)

func (c *updateCtx) Args() []storage.Value { return c.args }

// Definitive implements sproc.TxnControl.
func (c *updateCtx) Definitive() <-chan struct{} { return c.att.definitive() }

// AbortSignal implements sproc.TxnControl.
func (c *updateCtx) AbortSignal() <-chan struct{} { return c.att.abortCh }

func (c *updateCtx) Read(key storage.Key) (storage.Value, bool) {
	c.att.mu.Lock()
	defer c.att.mu.Unlock()
	if c.att.aborted {
		c.err = errAborted
		return nil, false
	}
	return c.att.stx.Read(c.class, key)
}

func (c *updateCtx) Write(key storage.Key, v storage.Value) error {
	c.att.mu.Lock()
	defer c.att.mu.Unlock()
	if c.att.aborted {
		c.err = errAborted
		return errAborted
	}
	return c.att.stx.Write(c.class, key, v)
}

// multiUpdateCtx implements sproc.MultiUpdateCtx (class-qualified keys)
// with abort fencing.
type multiUpdateCtx struct {
	att  *attempt
	args []storage.Value
	err  error
}

var _ sproc.MultiUpdateCtx = (*multiUpdateCtx)(nil)
var _ sproc.TxnControl = (*multiUpdateCtx)(nil)

func (c *multiUpdateCtx) Args() []storage.Value { return c.args }

// Definitive implements sproc.TxnControl.
func (c *multiUpdateCtx) Definitive() <-chan struct{} { return c.att.definitive() }

// AbortSignal implements sproc.TxnControl.
func (c *multiUpdateCtx) AbortSignal() <-chan struct{} { return c.att.abortCh }

func (c *multiUpdateCtx) Read(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	c.att.mu.Lock()
	defer c.att.mu.Unlock()
	if c.att.aborted {
		c.err = errAborted
		return nil, false
	}
	return c.att.stx.Read(storage.Partition(class), key)
}

func (c *multiUpdateCtx) Write(class sproc.ClassID, key storage.Key, v storage.Value) error {
	c.att.mu.Lock()
	defer c.att.mu.Unlock()
	if c.att.aborted {
		c.err = errAborted
		return errAborted
	}
	return c.att.stx.Write(storage.Partition(class), key, v)
}
