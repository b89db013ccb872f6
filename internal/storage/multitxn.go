package storage

import (
	"fmt"
	"slices"
)

// MultiTxn is an update transaction spanning several partitions — the
// storage side of the multi-class transactions of the companion report
// [13]. It composes one single-partition Txn per partition; the OTP
// scheduler guarantees the transaction heads every class queue before it
// runs, so partition acquisition cannot deadlock (and failure to acquire
// is a scheduler bug, reported as ErrPartitionBusy).
//
// Partitions are kept in a small sorted slice with linear lookup:
// transactions declare at most a handful of classes, and the slice saves
// a map allocation per attempt on the commit hot path.
//
// The zero value is ready for BeginMultiWait, and so is a MultiTxn that
// has committed or aborted: it keeps its Txns and their buffers, so an
// owner that begins one transaction after another on the same MultiTxn
// (the db executor's pooled attempt) allocates for none of them.
type MultiTxn struct {
	order []Partition
	txs   []*Txn // parallel to order: the partitions held, own[:len(txs)]
	own   []*Txn // every Txn this MultiTxn ever began, for the next time
	done  bool
}

// ClassKey qualifies a key with its partition, for read/write-set
// reporting across partitions.
type ClassKey struct {
	Partition Partition
	Key       Key
}

// setParts makes order the sorted, deduplicated partition set.
func (t *MultiTxn) setParts(parts []Partition) error {
	t.order = t.order[:0]
	for _, p := range parts {
		if !slices.Contains(t.order, p) {
			t.order = append(t.order, p)
		}
	}
	switch len(t.order) {
	case 0:
		return fmt.Errorf("storage: BeginMulti needs at least one partition")
	case 1: // nearly every transaction: nothing to sort
	default:
		// Not sort.Slice: it builds a reflection swapper and a closure.
		slices.Sort(t.order)
	}
	return nil
}

// acquire begins a Txn on every partition of order, all or nothing: on a
// busy partition it releases what it holds and returns that partition.
func (t *MultiTxn) acquire(s *Store) (busy Partition, err error) {
	for len(t.own) < len(t.order) {
		t.own = append(t.own, new(Txn))
	}
	t.done = false
	for i, p := range t.order {
		if err := s.begin(t.own[i], p); err != nil {
			t.txs = t.own[:i]
			_ = t.Abort()
			return p, err
		}
	}
	t.txs = t.own[:len(t.order)]
	return "", nil
}

// BeginMulti starts a transaction over the given set of partitions
// (deduplicated; acquisition in sorted order). On any failure the already
// acquired partitions are released.
func (s *Store) BeginMulti(parts []Partition) (*MultiTxn, error) {
	mt := new(MultiTxn)
	if err := mt.setParts(parts); err != nil {
		return nil, err
	}
	if _, err := mt.acquire(s); err != nil {
		return nil, err
	}
	return mt, nil
}

// BeginMultiWait begins mt — new or finished — over the given set of
// partitions like BeginMulti, but blocks until every partition is free
// instead of returning ErrPartitionBusy. Acquisition is all-or-nothing:
// on a busy partition the already acquired ones are released and the
// caller parks on the busy partition's release channel (closed by a
// commit or an abort) — no polling. cancel, when non-nil, aborts the wait
// with ErrCanceled.
func (s *Store) BeginMultiWait(mt *MultiTxn, parts []Partition, cancel <-chan struct{}) error {
	if err := mt.setParts(parts); err != nil {
		return err
	}
	for {
		// Holding nothing while waiting avoids a deadlock against a racing
		// abort that still owns a later partition.
		busy, err := mt.acquire(s)
		if err == nil {
			return nil
		}
		pt := s.part(busy)
		pt.mu.Lock()
		if pt.active == nil {
			// Freed between the failed Begin and here; retry immediately.
			pt.mu.Unlock()
			continue
		}
		ch := pt.waitChLocked()
		pt.mu.Unlock()
		select {
		case <-ch:
		case <-cancel:
			pt.mu.Lock()
			pt.waiters--
			pt.mu.Unlock()
			return ErrCanceled
		}
		pt.mu.Lock()
		pt.waiters--
		pt.mu.Unlock()
	}
}

// lookup returns the partition's txn or nil.
func (t *MultiTxn) lookup(p Partition) *Txn {
	for i, q := range t.order {
		if q == p {
			return t.txs[i]
		}
	}
	return nil
}

// Read returns the value of a key in one of the transaction's partitions.
// The returned Value must not be modified.
func (t *MultiTxn) Read(p Partition, k Key) (Value, bool) {
	tx := t.lookup(p)
	if tx == nil {
		return nil, false
	}
	return tx.Read(k)
}

// Write sets a key in one of the transaction's partitions.
func (t *MultiTxn) Write(p Partition, k Key, v Value) error {
	tx := t.lookup(p)
	if tx == nil {
		return fmt.Errorf("storage: partition %s not part of this transaction", p)
	}
	return tx.Write(k, v)
}

// ReadSet returns the qualified keys read so far, in partition order.
func (t *MultiTxn) ReadSet() []ClassKey {
	var out []ClassKey
	for i, p := range t.order {
		for _, k := range t.txs[i].readSet {
			out = append(out, ClassKey{Partition: p, Key: k})
		}
	}
	return out
}

// WriteSet returns the qualified keys written so far, in partition order.
func (t *MultiTxn) WriteSet() []ClassKey {
	var out []ClassKey
	for i, p := range t.order {
		for _, k := range t.txs[i].writeSet {
			out = append(out, ClassKey{Partition: p, Key: k})
		}
	}
	return out
}

// PendingWrites captures the qualified writes as they will commit (last
// write wins per key), in partition order — the payload of one
// write-ahead log record. Call before Commit; the returned values alias
// the transaction's buffers, which are immutable from here to commit.
func (t *MultiTxn) PendingWrites() []ClassKeyValue {
	var out []ClassKeyValue
	for _, tx := range t.txs {
		out = tx.pendingWrites(out)
	}
	return out
}

// Abort rolls back every partition's transaction. Safe on partially
// constructed transactions.
func (t *MultiTxn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	var first error
	for _, tx := range t.txs {
		if err := tx.Abort(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Commit installs the writes of every partition with the same definitive
// index. Conflicting transactions commit in definitive order in every
// class they share, so per-partition indexes remain ascending.
func (t *MultiTxn) Commit(toIndex int64) error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	for i, tx := range t.txs {
		if err := tx.Commit(toIndex); err != nil {
			return fmt.Errorf("storage: multi commit, partition %s: %w", t.order[i], err)
		}
	}
	return nil
}
