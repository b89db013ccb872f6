package otp

import (
	"fmt"
	"slices"
	"sync"

	"otpdb/internal/abcast"
)

// This file is the paper's pseudocode verbatim — one conflict class per
// transaction, Figures 4–6 line by line (S1–S4, E1–E5, CC1–CC12) — kept
// as the test oracle of MultiManager, the scheduler the product runs:
// differential_test.go drives both with the same delivery and completion
// streams and requires identical executor calls, counters, commit logs
// and class queues. Nothing outside the package's tests can reach it.

// Txn is the manager's bookkeeping for one update transaction. ID, Class
// and Payload are immutable after Opt-delivery; the state fields are owned
// by the Manager and must be read through snapshots (State) by outsiders.
type Txn struct {
	// ID is the atomic broadcast message identifier of the transaction
	// request.
	ID abcast.MsgID
	// Class is the transaction's conflict class.
	Class ClassID
	// Payload is the opaque transaction request (stored procedure name
	// and arguments at the database layer).
	Payload any

	exec    ExecState
	deliv   DeliveryState
	running bool
	epoch   int
	toIndex int64 // definitive index, assigned at TO-delivery (1-based)
}

// TOIndex returns the definitive (TO-delivery) index of the transaction,
// or 0 if it has not been TO-delivered yet. Transaction T_i of the paper's
// Section 5 has TOIndex i.
func (t *Txn) TOIndex() int64 { return t.toIndex }

// Epoch returns the abort epoch passed to Executor.Submit; completions
// from stale epochs are ignored by the manager.
func (t *Txn) Epoch() int { return t.epoch }

// Executor performs the data work on behalf of the manager. Submit must
// not block: it starts asynchronous execution (a goroutine in the live
// engine, a scheduled event in simulations) and the executor later calls
// Manager.OnExecuted with the same epoch. Synchronous executors may call
// OnExecuted from within Submit; the manager tolerates reentrancy.
//
// Abort undoes every effect of a partially or fully executed transaction
// and cancels an in-flight execution (completions with stale epochs are
// discarded by the manager as well). Commit makes the transaction's
// effects permanent and visible, labelled with the definitive index
// tx.TOIndex() for the multi-version snapshot reads of Section 5.
type Executor interface {
	Submit(tx *Txn, epoch int)
	Abort(tx *Txn)
	Commit(tx *Txn)
}

// Hooks are optional observation points. OnCommit and OnAbort are invoked
// outside the manager lock; OnTODelivered is invoked under it (it must be
// fast and must not call back into the manager).
type Hooks struct {
	// OnCommit fires after Executor.Commit for each transaction.
	OnCommit func(tx *Txn)
	// OnAbort fires after Executor.Abort for each CC8 abort.
	OnAbort func(tx *Txn)
	// OnTODelivered fires when a transaction's definitive index is
	// assigned, before any rescheduling. The query layer uses it to track
	// the largest definitive index per conflict class (Section 5).
	OnTODelivered func(id abcast.MsgID, class ClassID, toIndex int64)
}

// Manager is the OTP transaction manager of Section 3: the Serialization,
// Execution and Correctness Check modules operating on the conflict-class
// queues. All methods are safe for concurrent use; the executor callbacks
// triggered by a method run after its internal lock is released, in
// protocol order (aborts, then commits, then submissions of that step).
type Manager struct {
	mu     sync.Mutex
	exec   Executor
	hooks  Hooks
	queues map[ClassID][]*Txn
	index  map[abcast.MsgID]*Txn

	nextTOIndex int64
	committed   []CommitRecord
	stats       Stats
}

// CommitRecord is one entry of the oracle's commit log.
type CommitRecord struct {
	ID      abcast.MsgID
	Class   ClassID
	TOIndex int64
}

type action struct {
	kind  actionKind
	tx    *Txn
	epoch int
}

// NewManager creates a manager that drives exec.
func NewManager(exec Executor, hooks Hooks) *Manager {
	return &Manager{
		exec:   exec,
		hooks:  hooks,
		queues: make(map[ClassID][]*Txn),
		index:  make(map[abcast.MsgID]*Txn),
	}
}

// OnOptDeliver is the Serialization module (Figure 4). It appends the
// transaction to its class queue in tentative order (S1), marks it pending
// and active (S2) and submits it when it is alone in the queue (S3–S4).
func (m *Manager) OnOptDeliver(id abcast.MsgID, class ClassID, payload any) error {
	m.mu.Lock()
	if _, dup := m.index[id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("%w: %v Opt-delivered twice", ErrDuplicate, id)
	}
	tx := &Txn{ID: id, Class: class, Payload: payload, exec: Active, deliv: Pending} // S2
	m.index[id] = tx
	q := append(m.queues[class], tx) // S1
	m.queues[class] = q
	m.stats.OptDelivered++
	var actsBuf [4]action
	acts := actsBuf[:0]
	if len(q) == 1 { // S3
		acts = m.submitLocked(tx, acts) // S4
	}
	m.mu.Unlock()
	m.perform(acts)
	return nil
}

// OnExecuted is the Execution module (Figure 5), invoked by the executor
// when a submitted transaction finishes. Completions carrying a stale
// epoch (the transaction was aborted meanwhile) are discarded.
func (m *Manager) OnExecuted(id abcast.MsgID, epoch int) {
	m.mu.Lock()
	tx, ok := m.index[id]
	if !ok || tx.epoch != epoch || !tx.running {
		m.mu.Unlock()
		return
	}
	tx.running = false
	var actsBuf [4]action
	acts := actsBuf[:0]
	if tx.deliv == Committable { // E1
		acts = m.commitLocked(tx, acts) // E2–E3
	} else {
		tx.exec = Executed // E5
	}
	m.mu.Unlock()
	m.perform(acts)
}

// OnTODeliver is the Correctness Check module (Figure 6). It confirms the
// definitive position of a transaction: an executed head commits (CC2–CC4);
// otherwise the transaction is marked committable (CC6), a pending head is
// aborted (CC7–CC8), the transaction is rescheduled before the first
// pending one (CC10) and submitted if it is now the head (CC11–CC12).
func (m *Manager) OnTODeliver(id abcast.MsgID) error {
	m.mu.Lock()
	tx, ok := m.index[id] // CC1
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
		m.hooks.OnTODelivered(tx.ID, tx.Class, tx.toIndex)
	}

	var actsBuf [4]action
	acts := actsBuf[:0]
	if tx.exec == Executed { // CC2: can only be the head of its queue
		tx.deliv = Committable
		acts = m.commitLocked(tx, acts) // CC3–CC4
		m.mu.Unlock()
		m.perform(acts)
		return nil
	}

	// CC5: not fully executed, or not the head.
	tx.deliv = Committable // CC6
	q := m.queues[tx.Class]
	if head := q[0]; head.deliv == Pending { // CC7 (tx itself is committable now)
		acts = m.abortLocked(head, acts) // CC8
	}
	acts = m.rescheduleLocked(tx, acts) // CC10–CC12
	m.mu.Unlock()
	m.perform(acts)
	return nil
}

// submitLocked starts tx on the executor.
func (m *Manager) submitLocked(tx *Txn, acts []action) []action {
	tx.running = true
	m.stats.Submits++
	return append(acts, action{kind: actSubmit, tx: tx, epoch: tx.epoch})
}

// commitLocked commits tx (it must be the head of its queue), removes it,
// and starts the next transaction (E2–E3 / CC3–CC4).
func (m *Manager) commitLocked(tx *Txn, acts []action) []action {
	q := m.queues[tx.Class]
	if len(q) == 0 || q[0] != tx {
		// Protocol invariant: only the head can commit.
		panic(fmt.Sprintf("otp: commit of non-head transaction %v", tx.ID))
	}
	m.queues[tx.Class] = q[1:]
	delete(m.index, tx.ID)
	m.committed = append(m.committed, CommitRecord{ID: tx.ID, Class: tx.Class, TOIndex: tx.toIndex})
	m.stats.Commits++
	acts = append(acts, action{kind: actCommit, tx: tx})
	if next := m.queues[tx.Class]; len(next) > 0 { // E3/CC4
		if next[0].exec == Executed {
			panic(fmt.Sprintf("otp: queued transaction %v executed while not head", next[0].ID))
		}
		acts = m.submitLocked(next[0], acts)
	}
	return acts
}

// abortLocked undoes the head transaction (CC8): its effects are rolled
// back, its execution (if any) is invalidated via the epoch, and it
// becomes active again, to be re-run when it reaches the head.
func (m *Manager) abortLocked(tx *Txn, acts []action) []action {
	tx.epoch++
	tx.running = false
	tx.exec = Active
	m.stats.Aborts++
	return append(acts, action{kind: actAbort, tx: tx})
}

// rescheduleLocked implements CC10–CC12: move tx before the first pending
// transaction in its class queue (committable transactions always form a
// prefix), then submit it if it is now the head.
func (m *Manager) rescheduleLocked(tx *Txn, acts []action) []action {
	q := m.queues[tx.Class]
	// Remove tx.
	pos := -1
	for i, cur := range q {
		if cur == tx {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("otp: transaction %v missing from its class queue", tx.ID))
	}
	q = append(q[:pos], q[pos+1:]...)
	// Insertion point: after the committable prefix (== before the first
	// pending transaction, CC10).
	ins := 0
	for ins < len(q) && q[ins].deliv == Committable {
		ins++
	}
	q = append(q, nil)
	copy(q[ins+1:], q[ins:])
	q[ins] = tx
	m.queues[tx.Class] = q
	if pos != ins {
		m.stats.Reorders++
	}
	if ins == 0 && !tx.running { // CC11–CC12
		acts = m.submitLocked(tx, acts)
	}
	return acts
}

// perform executes deferred executor calls outside the lock, in protocol
// order.
func (m *Manager) perform(acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actAbort:
			m.exec.Abort(a.tx)
			if m.hooks.OnAbort != nil {
				m.hooks.OnAbort(a.tx)
			}
		case actCommit:
			m.exec.Commit(a.tx)
			if m.hooks.OnCommit != nil {
				m.hooks.OnCommit(a.tx)
			}
		case actSubmit:
			m.exec.Submit(a.tx, a.epoch)
		}
	}
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Committed returns a copy of the local commit log, in commit order.
func (m *Manager) Committed() []CommitRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.committed)
}

// LastTOIndex returns the index of the most recent TO-delivered
// transaction; queries of Section 5 start with index LastTOIndex()+0.5.
func (m *Manager) LastTOIndex() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextTOIndex
}

// QueueSnapshot returns the current state of one class queue, head first.
func (m *Manager) QueueSnapshot(class ClassID) []State {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[class]
	out := make([]State, len(q))
	for i, tx := range q {
		out[i] = State{
			ID:      tx.ID,
			Class:   tx.Class,
			Exec:    tx.exec,
			Deliv:   tx.deliv,
			Running: tx.running,
			TOIndex: tx.toIndex,
		}
	}
	return out
}

// Pending reports the number of transactions still queued (delivered but
// not committed) across all classes.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}

// CheckInvariants validates the structural invariants of the class queues:
// committable transactions form a prefix of every queue, only the head may
// be running or executed, and every queued transaction is indexed. It
// returns nil when all invariants hold.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	indexed := 0
	for class, q := range m.queues {
		inPrefix := true
		for i, tx := range q {
			indexed++
			if m.index[tx.ID] != tx {
				return fmt.Errorf("class %s: %v not indexed", class, tx.ID)
			}
			if tx.Class != class {
				return fmt.Errorf("class %s: %v has class %s", class, tx.ID, tx.Class)
			}
			if tx.deliv == Committable && !inPrefix {
				return fmt.Errorf("class %s: committable %v after a pending transaction", class, tx.ID)
			}
			if tx.deliv == Pending {
				inPrefix = false
			}
			if i > 0 && (tx.running || tx.exec == Executed) {
				return fmt.Errorf("class %s: non-head %v is %v/running=%v", class, tx.ID, tx.exec, tx.running)
			}
		}
	}
	if indexed != len(m.index) {
		return fmt.Errorf("index size %d != queued transactions %d", len(m.index), indexed)
	}
	return nil
}
