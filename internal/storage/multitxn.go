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
type MultiTxn struct {
	order []Partition
	txs   []*Txn // parallel to order
	done  bool
}

// ClassKey qualifies a key with its partition, for read/write-set
// reporting across partitions.
type ClassKey struct {
	Partition Partition
	Key       Key
}

// dedupSortParts returns the sorted, deduplicated partition set.
func dedupSortParts(parts []Partition) ([]Partition, error) {
	uniq := make([]Partition, 0, len(parts))
	for _, p := range parts {
		dup := false
		for _, u := range uniq {
			if u == p {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("storage: BeginMulti needs at least one partition")
	}
	// Not sort.Slice: it builds a reflection swapper and a closure even
	// for the single partition nearly every transaction has.
	slices.Sort(uniq)
	return uniq, nil
}

// BeginMulti starts a transaction over the given set of partitions
// (deduplicated; acquisition in sorted order). On any failure the already
// acquired partitions are released.
func (s *Store) BeginMulti(parts []Partition, mode Mode) (*MultiTxn, error) {
	uniq, err := dedupSortParts(parts)
	if err != nil {
		return nil, err
	}
	mt := &MultiTxn{order: uniq, txs: make([]*Txn, 0, len(uniq))}
	for _, p := range uniq {
		tx, err := s.Begin(p, mode)
		if err != nil {
			_ = mt.Abort()
			return nil, err
		}
		mt.txs = append(mt.txs, tx)
	}
	return mt, nil
}

// BeginMultiWait is BeginMulti that blocks until every partition is free
// instead of returning ErrPartitionBusy. Acquisition is all-or-nothing:
// on a busy partition the already acquired ones are released and the
// caller parks on the busy partition's release channel — no polling.
// cancel, when non-nil, aborts the wait with ErrCanceled.
func (s *Store) BeginMultiWait(parts []Partition, mode Mode, cancel <-chan struct{}) (*MultiTxn, error) {
	if mode != Buffered && mode != InPlaceUndo {
		return nil, fmt.Errorf("storage: invalid mode %d", mode)
	}
	uniq, err := dedupSortParts(parts)
	if err != nil {
		return nil, err
	}
	for {
		mt := &MultiTxn{order: uniq, txs: make([]*Txn, 0, len(uniq))}
		var busy Partition
		for _, p := range uniq {
			tx, err := s.Begin(p, mode)
			if err != nil {
				busy = p
				break
			}
			mt.txs = append(mt.txs, tx)
		}
		if len(mt.txs) == len(uniq) {
			return mt, nil
		}
		// Release what we hold (all-or-nothing avoids deadlock against a
		// racing abort that still owns a later partition), then wait for
		// the busy partition to free up.
		mt.order = mt.order[:len(mt.txs)]
		_ = mt.Abort()
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
			return nil, ErrCanceled
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
