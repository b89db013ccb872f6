package otp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"otpdb/internal/abcast"
)

// This file implements the generalization the paper defers to its
// companion report ([13], referenced in Sections 2.3 and 6): transactions
// whose conflict specification is a *set* of classes rather than exactly
// one. A multi-class transaction enters the FIFO queue of every class it
// declares, starts executing when it heads all of them, and commits when
// it is executed and TO-delivered. The Correctness Check applies per
// queue: on TO-delivery the transaction is rescheduled before the first
// pending transaction of each of its queues, aborting displaced pending
// heads.
//
// Deadlock freedom is inherited from the insertion discipline: pending
// transactions appear in every queue in tentative-delivery order and
// committable ones in definitive order, so the orders of any two queues
// never disagree and the uncommitted transaction with the smallest
// definitive index heads all of its queues.

// MultiTxn is the bookkeeping for a transaction over a set of classes.
type MultiTxn struct {
	// ID is the broadcast message identifier.
	ID abcast.MsgID
	// Classes is the sorted set of conflict classes the transaction may
	// touch.
	Classes []ClassID
	// Payload is the opaque request.
	Payload any

	exec      ExecState
	deliv     DeliveryState
	running   bool
	epoch     int
	toIndex   int64
	reordered bool

	// refs counts deferred perform() actions still referencing this
	// struct; committed is set when the commit action is enqueued. The
	// manager recycles the struct only when it is committed AND every
	// action (including stale submits superseded by an abort) has
	// drained — a stale action must keep observing the original ID so
	// the executor's epoch fence rejects it. Typed atomics so every
	// access — the pool reset included — goes through Load/Store/Add,
	// and the embedded noCopy lets vet's copylocks reject struct
	// copies (the atomiccow analyzer enforces the access side).
	refs      atomic.Int32
	committed atomic.Int32
}

// TOIndex returns the definitive index (0 before TO-delivery).
func (t *MultiTxn) TOIndex() int64 { return t.toIndex }

// Epoch returns the abort epoch for Executor fencing.
func (t *MultiTxn) Epoch() int { return t.epoch }

// Aborts returns how many times the transaction's optimistic execution
// was undone by the Correctness Check (each abort bumps the epoch). A
// committed transaction with Aborts() > 0 took the retry path.
func (t *MultiTxn) Aborts() int { return t.epoch }

// Committed reports whether the transaction has committed. A deferred
// Submit may reach the executor that late — its goroutine was held up
// behind a commit's hooks while another goroutine aborted, resubmitted,
// executed and committed the transaction — and must then be dropped.
// Valid for as long as the callback holds the struct.
func (t *MultiTxn) Committed() bool { return t.committed.Load() == 1 }

// Reordered reports whether TO-delivery moved the transaction ahead of
// pending transactions in at least one of its class queues — i.e. its
// definitive position contradicted the tentative one (CC10).
func (t *MultiTxn) Reordered() bool { return t.reordered }

// MultiExecutor performs the data work on behalf of the manager. Submit
// must not block: it starts asynchronous execution and the executor later
// calls MultiManager.OnExecuted with the same epoch. Synchronous
// executors may call OnExecuted from within Submit; the manager tolerates
// reentrancy.
//
// Abort undoes every effect of a partially or fully executed transaction
// and cancels an in-flight execution (completions with stale epochs are
// discarded by the manager as well). Commit makes the transaction's
// effects permanent and visible, labelled with the definitive index
// tx.TOIndex() for the multi-version snapshot reads of Section 5.
type MultiExecutor interface {
	Submit(tx *MultiTxn, epoch int)
	Abort(tx *MultiTxn)
	Commit(tx *MultiTxn)
}

// MultiHooks are optional observation points. OnCommit is invoked
// outside the manager lock; OnTODelivered is invoked under it (it must
// be fast and must not call back into the manager).
type MultiHooks struct {
	// OnCommit fires after MultiExecutor.Commit for each transaction.
	OnCommit func(tx *MultiTxn)
	// OnTODelivered fires when a transaction's definitive index is
	// assigned, before any rescheduling. The query layer uses it to track
	// the largest definitive index per conflict class (Section 5).
	OnTODelivered func(id abcast.MsgID, classes []ClassID, toIndex int64)
}

// ErrNoClasses is returned for transactions declaring no conflict class.
var ErrNoClasses = errors.New("otp: transaction declares no conflict class")

// MultiManager is the OTP transaction manager: the Serialization,
// Execution and Correctness Check modules of Section 3, generalized
// [13]-style to class sets. It is the only scheduler the product runs; a
// transaction with one class takes exactly the steps of the paper's
// Figures 4–6, which the differential test holds it to against the
// pseudocode-verbatim oracle in oracle_test.go. All methods are safe for
// concurrent use; the executor callbacks triggered by a method run after
// its internal lock is released, in protocol order (aborts, then commits,
// then submissions of that step).
//
// MultiTxn structs are recycled after commit: executors and hooks must
// not retain a *MultiTxn past the return of the callback that received
// it (copy the fields needed instead — the db executor captures ID,
// Classes and Payload into its attempt struct at Submit time).
type MultiManager struct {
	mu     sync.Mutex
	exec   MultiExecutor
	hooks  MultiHooks
	queues map[ClassID][]*MultiTxn
	index  map[abcast.MsgID]*MultiTxn

	nextTOIndex int64
	stats       Stats
}

type multiAction struct {
	kind  actionKind
	tx    *MultiTxn
	epoch int
}

// multiTxnPool recycles MultiTxn bookkeeping structs (one per
// transaction on the commit hot path).
var multiTxnPool = sync.Pool{New: func() any { return new(MultiTxn) }}

// NewMultiManager creates a manager driving exec.
func NewMultiManager(exec MultiExecutor, hooks MultiHooks) *MultiManager {
	return &MultiManager{
		exec:   exec,
		hooks:  hooks,
		queues: make(map[ClassID][]*MultiTxn),
		index:  make(map[abcast.MsgID]*MultiTxn),
	}
}

// StartAt presets the definitive index counter so the next TO delivery
// is assigned base+1 — the recovery resume point. Call before the first
// delivery; the counter never moves backwards.
func (m *MultiManager) StartAt(base int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if base > m.nextTOIndex {
		m.nextTOIndex = base
	}
}

// OnOptDeliver is the generalized Serialization module: the transaction
// joins every declared class queue in tentative order and starts if it
// heads all of them.
func (m *MultiManager) OnOptDeliver(id abcast.MsgID, classes []ClassID, payload any) error {
	if len(classes) == 0 {
		return ErrNoClasses
	}
	m.mu.Lock()
	if _, dup := m.index[id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("%w: %v Opt-delivered twice", ErrDuplicate, id)
	}
	tx := multiTxnPool.Get().(*MultiTxn)
	// Field-by-field reset: a whole-struct write would store refs and
	// committed non-atomically, racing a late decref from the previous
	// incarnation's perform() drain.
	tx.ID = id
	tx.Classes = normalizeClasses(tx.Classes[:0], classes)
	sorted := tx.Classes
	tx.Payload = payload
	tx.exec = Active
	tx.deliv = Pending
	tx.running = false
	tx.epoch = 0
	tx.toIndex = 0
	tx.reordered = false
	tx.refs.Store(0)
	tx.committed.Store(0)
	m.index[id] = tx
	for _, class := range sorted {
		m.queues[class] = append(m.queues[class], tx)
	}
	m.stats.OptDelivered++
	var actsBuf [4]multiAction
	acts := m.trySubmitLocked(tx, actsBuf[:0])
	m.mu.Unlock()
	m.perform(acts)
	return nil
}

// OnExecuted is the generalized Execution module.
func (m *MultiManager) OnExecuted(id abcast.MsgID, epoch int) {
	m.mu.Lock()
	tx, ok := m.index[id]
	if !ok || tx.epoch != epoch || !tx.running {
		m.mu.Unlock()
		return
	}
	tx.running = false
	var actsBuf [4]multiAction
	acts := actsBuf[:0]
	if tx.deliv == Committable {
		acts = m.commitLocked(tx, acts)
	} else {
		tx.exec = Executed
	}
	m.mu.Unlock()
	m.perform(acts)
}

// OnTODeliver is the generalized Correctness Check module: the
// rescheduling of CC7–CC12 is applied in every one of the transaction's
// class queues.
func (m *MultiManager) OnTODeliver(id abcast.MsgID) error {
	m.mu.Lock()
	tx, ok := m.index[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrUnknownTxn, id)
	}
	if tx.deliv == Committable {
		m.mu.Unlock()
		return fmt.Errorf("%w: %v TO-delivered twice", ErrDuplicate, id)
	}
	m.nextTOIndex++
	tx.toIndex = m.nextTOIndex
	m.stats.TODelivered++
	if m.hooks.OnTODelivered != nil {
		m.hooks.OnTODelivered(tx.ID, tx.Classes, tx.toIndex)
	}

	var actsBuf [8]multiAction
	acts := actsBuf[:0]
	if tx.exec == Executed { // executed implies heading all queues
		tx.deliv = Committable
		acts = m.commitLocked(tx, acts)
		m.mu.Unlock()
		m.perform(acts)
		return nil
	}

	tx.deliv = Committable
	for _, class := range tx.Classes {
		q := m.queues[class]
		head := q[0]
		// Generalized CC7/CC8: a pending head that has optimistically
		// started (or finished) must be undone before the confirmed
		// transaction overtakes it. A pending head that never started
		// needs no undo — its queue entry simply shifts. (The abort leaves
		// the head neither running nor executed, so one that heads several
		// of these queues is undone once.)
		if head != tx && head.deliv == Pending && (head.running || head.exec == Executed) {
			acts = m.abortLocked(head, acts)
		}
		m.rescheduleInClassLocked(tx, class)
	}
	acts = m.trySubmitLocked(tx, acts)
	m.mu.Unlock()
	m.perform(acts)
	return nil
}

// trySubmitLocked starts tx if it is active, idle, and heads every one of
// its queues.
func (m *MultiManager) trySubmitLocked(tx *MultiTxn, acts []multiAction) []multiAction {
	if tx.running || tx.exec != Active {
		return acts
	}
	for _, class := range tx.Classes {
		q := m.queues[class]
		if len(q) == 0 || q[0] != tx {
			return acts
		}
	}
	tx.running = true
	m.stats.Submits++
	tx.refs.Add(1)
	return append(acts, multiAction{kind: actSubmit, tx: tx, epoch: tx.epoch})
}

// commitLocked removes tx from all its queues and wakes the new heads.
func (m *MultiManager) commitLocked(tx *MultiTxn, acts []multiAction) []multiAction {
	for _, class := range tx.Classes {
		q := m.queues[class]
		if len(q) == 0 || q[0] != tx {
			panic(fmt.Sprintf("otp: multi commit of %v while not heading %s", tx.ID, class))
		}
		m.queues[class] = q[1:]
	}
	delete(m.index, tx.ID)
	m.stats.Commits++
	tx.refs.Add(1)
	tx.committed.Store(1)
	acts = append(acts, multiAction{kind: actCommit, tx: tx})
	// New heads of the vacated queues may now be runnable. (A head that
	// heads several of them is submitted once: trySubmitLocked marks it
	// running.)
	for _, class := range tx.Classes {
		if q := m.queues[class]; len(q) > 0 {
			acts = m.trySubmitLocked(q[0], acts)
		}
	}
	return acts
}

func (m *MultiManager) abortLocked(tx *MultiTxn, acts []multiAction) []multiAction {
	tx.epoch++
	tx.running = false
	tx.exec = Active
	m.stats.Aborts++
	tx.refs.Add(1)
	return append(acts, multiAction{kind: actAbort, tx: tx})
}

// rescheduleInClassLocked moves tx before the first pending transaction
// of one class queue (committable transactions form a prefix per queue).
func (m *MultiManager) rescheduleInClassLocked(tx *MultiTxn, class ClassID) {
	q := m.queues[class]
	pos := -1
	for i, cur := range q {
		if cur == tx {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("otp: %v missing from class %s", tx.ID, class))
	}
	q = append(q[:pos], q[pos+1:]...)
	ins := 0
	for ins < len(q) && q[ins].deliv == Committable {
		ins++
	}
	q = append(q, nil)
	copy(q[ins+1:], q[ins:])
	q[ins] = tx
	m.queues[class] = q
	if pos != ins {
		m.stats.Reorders++
		tx.reordered = true
	}
}

// perform executes deferred executor calls outside the lock, in protocol
// order. A committed transaction is recycled once its last deferred
// action drains — never earlier, so a stale submit superseded by a
// racing abort still reads the original struct and is rejected by the
// executor's epoch fence (see the MultiManager retention contract).
func (m *MultiManager) perform(acts []multiAction) {
	for _, a := range acts {
		switch a.kind {
		case actAbort:
			m.exec.Abort(a.tx)
		case actCommit:
			m.exec.Commit(a.tx)
			if m.hooks.OnCommit != nil {
				m.hooks.OnCommit(a.tx)
			}
		case actSubmit:
			m.exec.Submit(a.tx, a.epoch)
		}
		// Read the committed flag BEFORE the decrement: the decrement is
		// the release point ordering this iteration before a recycle by
		// whichever goroutine drains the last reference — a load after
		// it would race with the pool reuse's reset. If this drainer
		// observes a stale 0 here the struct is simply left to the GC
		// (missed reuse, not a leak).
		committed := a.tx.Committed()
		if a.tx.refs.Add(-1) == 0 && committed {
			multiTxnPool.Put(a.tx)
		}
	}
}

// Stats returns a snapshot of the counters.
func (m *MultiManager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Pending reports delivered-but-uncommitted transactions.
func (m *MultiManager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}

// LastTOIndex returns the most recent definitive index.
func (m *MultiManager) LastTOIndex() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextTOIndex
}

// QueueSnapshot returns one class queue head-first.
func (m *MultiManager) QueueSnapshot(class ClassID) []State {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[class]
	out := make([]State, len(q))
	for i, tx := range q {
		out[i] = State{
			ID:      tx.ID,
			Class:   class,
			Exec:    tx.exec,
			Deliv:   tx.deliv,
			Running: tx.running,
			TOIndex: tx.toIndex,
		}
	}
	return out
}

// CheckInvariants validates the multi-class structural invariants:
// committable transactions form a prefix of every queue in ascending
// definitive order, pending suffixes share a consistent relative order
// across queues, and a running or executed transaction heads every one of
// its queues.
func (m *MultiManager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for class, q := range m.queues {
		inPrefix := true
		lastTO := int64(0)
		for _, tx := range q {
			if m.index[tx.ID] != tx {
				return fmt.Errorf("class %s: %v not indexed", class, tx.ID)
			}
			switch tx.deliv {
			case Committable:
				if !inPrefix {
					return fmt.Errorf("class %s: committable %v after pending", class, tx.ID)
				}
				if tx.toIndex <= lastTO {
					return fmt.Errorf("class %s: committable prefix not in definitive order", class)
				}
				lastTO = tx.toIndex
			case Pending:
				inPrefix = false
			}
		}
	}
	for _, tx := range m.index {
		if tx.running || tx.exec == Executed {
			for _, class := range tx.Classes {
				q := m.queues[class]
				if len(q) == 0 || q[0] != tx {
					return fmt.Errorf("%v is %v/running=%v but not heading %s",
						tx.ID, tx.exec, tx.running, class)
				}
			}
		}
	}
	return nil
}

// normalizeClasses appends the sorted, deduped class set to out (a
// recycled transaction's own slice: the caller's is not kept). Class sets
// are tiny — usually one entry — so linear dedup beats a map.
func normalizeClasses(out, classes []ClassID) []ClassID {
	for _, c := range classes {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	if len(out) > 1 {
		slices.Sort(out)
	}
	return out
}
