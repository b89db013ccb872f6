// Package storage is the replicated database's local storage engine: an
// in-memory key-value store partitioned by conflict class, with
// multi-version history for the snapshot queries of Section 5 of the
// paper.
//
// There is one write strategy: a transaction's writes go to a private
// buffer and become committed versions at commit; aborting discards the
// buffer, so a transaction the Correctness Check undoes leaves no effects
// (the "traditional recovery techniques" of Section 3.2). No transaction
// ever sees another's uncommitted data, which matches the paper's
// execution model (only the head of a class queue executes).
//
// Committed versions are labelled with the transaction's definitive
// (TO-delivery) index. A query with index q reads, per partition, the
// latest version with index <= q — exactly the snapshot rule of Section 5.
//
// # Concurrency
//
// The engine is sharded by partition (= conflict class, Section 2.3:
// different classes access disjoint parts of the database), and the read
// path is lock-free:
//
//   - The partition directory is an atomic copy-on-write map (partitions
//     are created once and live forever).
//   - Each key's version chain is an immutable versionState published
//     through an atomic pointer; writers build the next state and swap
//     it in at commit.
//   - Keys live in an atomic copy-on-write native map (one plain map
//     lookup on the hot path), fronted by a small sync.Map overflow for
//     recently created keys; the overflow is merged into a fresh base
//     map geometrically, so key creation stays amortized O(1) instead of
//     O(keys) per insert.
//   - Until the first read of a partition, the seed, recovery and
//     rejoin paths (Load, InstallCheckpoint) write straight into its
//     base map, one map insert and one block (entry, state and chain)
//     per key: nothing can be looking. InstallCheckpoint into such a
//     partition that holds no key yet sizes the map once and takes every
//     key's block from one slab. The first reader marks the partition
//     published under a small mutex those paths take too; from then on
//     they go through the copy-on-write directory like any other writer,
//     and a reader pays one atomic load of a flag that never changes
//     again.
//
// Writers — at most one update transaction per partition, enforced via
// the partition's active slot — serialize against each other and against
// Prune on the partition mutex. Readers (Get, SnapshotRead, queries)
// never take a lock, so snapshot queries cost no coordination and never
// block updates, sharpening the paper's Section 5 property.
//
// # Value immutability
//
// Values handed to the store (Load, Write) are copied at the boundary,
// so callers may reuse buffers; InstallCheckpoint shares the
// checkpoint's values instead, so one checkpoint can seed every site's
// store. Values handed OUT of the store
// (Get, SnapshotRead, Txn.Read, ...) are NOT copied: they alias the
// committed version, which is immutable by contract. Callers must treat
// returned Values as read-only. This removes one allocation per read
// from the commit and query hot paths.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// Partition names a storage partition. Partitions correspond one-to-one
// to conflict classes (Section 2.3: different classes access disjoint
// parts of the database).
type Partition string

// Key identifies an object within a partition.
type Key string

// Value is an immutable byte string. The store copies values at its
// boundaries on the way in (Load, Write: callers may reuse buffers),
// shares an installed checkpoint's, and returns
// aliases of committed versions on the way out (callers must not
// mutate them).
type Value []byte

// clone copies a value; nil stays nil.
func (v Value) clone() Value {
	if v == nil {
		return nil
	}
	out := make(Value, len(v))
	copy(out, v)
	return out
}

// Int64Value encodes an int64 as a Value.
func Int64Value(n int64) Value {
	buf := make(Value, 8)
	binary.BigEndian.PutUint64(buf, uint64(n))
	return buf
}

// ValueInt64 decodes a Value written by Int64Value. Missing or short
// values decode to 0.
func ValueInt64(v Value) int64 {
	if len(v) < 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(v))
}

// StringValue encodes a string as a Value.
func StringValue(s string) Value { return Value(s) }

// ValueString decodes a Value as a string.
func ValueString(v Value) string { return string(v) }

// Mode names the write strategy Begin is asked for. There is one.
type Mode int

// Buffered applies writes at commit time from a private buffer.
const Buffered Mode = 1

// Version is one committed version of a key.
type Version struct {
	// TOIndex is the definitive index of the transaction that wrote it.
	TOIndex int64
	// Value is the committed value.
	Value Value
}

// versionState is the immutable published state of one key: its version
// chain as parallel slices (ascending TOIndex), never empty; the tip is
// the key's current value. The index column is separate from the value
// column so the snapshot binary search walks a dense []int64 — 8-byte
// strides instead of 24-byte Version structs, which matters on deep
// chains where the search is cache-miss bound. Writers build the
// successor state and publish it atomically; readers load and use it
// without coordination. Appends may share the columns' backing arrays
// with older states — older states never index past their own length, so
// the sharing is invisible to them.
type versionState struct {
	idx  []int64 // version TO indexes, ascending
	vals []Value // parallel committed values
}

// latest returns the chain's tip: the key's current value (nil reads as
// absent) and the TO index that wrote it.
func (st *versionState) latest() (Value, int64) {
	n := len(st.idx) - 1
	return st.vals[n], st.idx[n]
}

// appendVersion derives the successor state with one more version.
func (st *versionState) appendVersion(toIndex int64, v Value) *versionState {
	return &versionState{idx: append(st.idx, toIndex), vals: append(st.vals, v)}
}

// entry is one key's slot: an atomic pointer to its published state.
type entry struct {
	state atomic.Pointer[versionState]
	// listed says the entry is on its partition's prunable list (guarded
	// by the partition mutex).
	listed bool
}

// load returns the entry's current state (never nil for a published
// entry).
func (e *entry) load() *versionState { return e.state.Load() }

// keyMap is the COW key directory of one partition: readers use a plain
// (native, string-specialized) map lookup on the published snapshot.
type keyMap = map[Key]*entry

// partition holds one conflict class's keys. Readers are lock-free; the
// mutex serializes writers (the active update transaction, Load, Prune)
// and the Begin wait list.
//
// Key layout: `keys` is the merged base map, published whole via the
// atomic pointer. New keys first land in the `overflow` sync.Map (O(1)
// insert); once the overflow outgrows a quarter of the base it is
// merged into a fresh base in one pass, keeping key creation amortized
// O(1) while the hot read path stays a single native map lookup (the
// overflow is consulted only on a base miss while overflowN != 0).
type partition struct {
	mu   sync.Mutex
	keys atomic.Pointer[keyMap]
	// published is set, under seedMu, by the first getEntry or
	// forEachEntry and never cleared; it sits beside keys, which every
	// read loads next. While it is false install writes into the base map
	// in place, checking it under seedMu. Lock order: mu, then seedMu
	// (ensureEntry reads under mu).
	published     atomic.Bool
	seedMu        sync.Mutex
	overflow      sync.Map // Key -> *entry, recently created
	overflowN     atomic.Int32
	lastCommitted atomic.Int64
	pruned        atomic.Int64 // snapshot watermark: reads below fail
	active        *Txn         // at most one writer (OTP head) at a time

	// prunable lists the entries whose chain holds more than one version:
	// the only ones a Prune can shorten. An entry joins when a commit
	// appends to its chain and leaves when a Prune cuts it back to one
	// version, so a pass costs what was written since the last one, not
	// the size of the partition.
	prunable []*entry

	// freeCh signals Begin waiters when the active transaction releases
	// the partition. It is allocated lazily by the first waiter and
	// closed (then cleared) by the releasing transaction, so uncontended
	// commits never touch it.
	waiters int
	freeCh  chan struct{}
}

// release marks the partition free and wakes any Begin waiters. Callers
// hold pt.mu.
func (pt *partition) release() {
	pt.active = nil
	if pt.waiters > 0 && pt.freeCh != nil {
		close(pt.freeCh)
		pt.freeCh = nil
	}
}

// waitChLocked registers the caller as a Begin waiter and returns the
// channel closed at the next release. Callers hold pt.mu and must
// decrement pt.waiters after the wait resolves.
func (pt *partition) waitChLocked() chan struct{} {
	pt.waiters++
	if pt.freeCh == nil {
		pt.freeCh = make(chan struct{})
	}
	return pt.freeCh
}

// addVersion appends the committed version (toIndex, v) to k's chain —
// a new key starts with that one version — and lists a lengthened chain
// for the next Prune. Callers hold pt.mu.
func (pt *partition) addVersion(k Key, toIndex int64, v Value) {
	e := pt.getEntry(k)
	if e == nil {
		pt.addEntry(k, new(keyBlock).init(toIndex, v))
		return
	}
	e.state.Store(e.load().appendVersion(toIndex, v))
	if !e.listed {
		e.listed = true
		pt.prunable = append(pt.prunable, e)
	}
}

// publish is what the first read of a partition does: it ends the
// in-place seeding, and from then on every writer goes through the
// copy-on-write directory. Readers call it while published is false.
func (pt *partition) publish() {
	pt.seedMu.Lock()
	pt.published.Store(true)
	pt.seedMu.Unlock()
}

// getEntry returns the key's entry, or nil. Lock-free once the partition
// is published.
func (pt *partition) getEntry(k Key) *entry {
	if !pt.published.Load() {
		pt.publish()
	}
	if e := (*pt.keys.Load())[k]; e != nil {
		return e
	}
	if pt.overflowN.Load() != 0 {
		if v, ok := pt.overflow.Load(k); ok {
			return v.(*entry)
		}
	}
	// A concurrent merge may have moved the key from the overflow into a
	// fresh base between the two lookups; re-check the base.
	if e := (*pt.keys.Load())[k]; e != nil {
		return e
	}
	return nil
}

// keyBlock is one allocation holding a key with a one-version chain: the
// entry, its state and the chain's two one-element columns. The columns have
// capacity 1, so the next commit's appendVersion copies them and never
// writes into a neighbour's array when the block is part of a slab.
type keyBlock struct {
	e   entry
	st  versionState
	idx [1]int64
	val [1]Value
}

// init fills b with the one-version chain (toIndex, v) and returns its
// entry.
func (b *keyBlock) init(toIndex int64, v Value) *entry {
	b.idx[0], b.val[0] = toIndex, v
	//otplint:allow atomiccow st is the value e.state publishes, never an atomic operand, and is written before it is published
	b.st = versionState{idx: b.idx[:], vals: b.val[:]}
	b.e.state.Store(&b.st)
	return &b.e
}

// addEntry adds the entry of a key the published partition lacks. New
// keys go to the overflow; the overflow is folded into a fresh base once
// it reaches a quarter of the base size (amortized O(1) per creation).
// Callers hold pt.mu.
func (pt *partition) addEntry(k Key, e *entry) {
	pt.overflow.Store(k, e)
	n := int(pt.overflowN.Add(1))
	if 4*n > len(*pt.keys.Load()) {
		pt.mergeOverflowLocked()
	}
}

// install gives k the one-version chain (toIndex, v), replacing whatever
// chain it had: the seed, recovery and rejoin paths. Before the partition
// is published the entry goes straight into the base map. Callers hold
// pt.mu.
func (pt *partition) install(k Key, toIndex int64, v Value) {
	ne := new(keyBlock).init(toIndex, v)
	pt.seedMu.Lock()
	if !pt.published.Load() {
		base := *pt.keys.Load()
		if e := base[k]; e != nil {
			e.state.Store(ne.load())
		} else {
			base[k] = ne
		}
		pt.seedMu.Unlock()
		return
	}
	pt.seedMu.Unlock()
	if e := pt.getEntry(k); e != nil {
		e.state.Store(ne.load())
	} else {
		pt.addEntry(k, ne)
	}
}

// installFresh is install for every key of a checkpoint at once, when
// nobody has read the partition and it holds no key yet: one base map
// sized to the keys and one slab of key blocks. A key listed twice takes
// its last version, as with install. It reports false, and installs
// nothing, when the partition is not fresh. Callers hold pt.mu.
func (pt *partition) installFresh(keys []KeyVersion) bool {
	pt.seedMu.Lock()
	defer pt.seedMu.Unlock()
	if pt.published.Load() || len(*pt.keys.Load()) != 0 {
		return false
	}
	base := make(keyMap, len(keys))
	slab := make([]keyBlock, len(keys))
	for i, kv := range keys {
		base[kv.Key] = slab[i].init(kv.TOIndex, kv.Value)
	}
	pt.keys.Store(&base)
	return true
}

// mergeOverflowLocked folds the overflow into a fresh base map and
// publishes it. Callers hold pt.mu.
func (pt *partition) mergeOverflowLocked() {
	base := *pt.keys.Load()
	next := make(keyMap, len(base)+int(pt.overflowN.Load()))
	for k, v := range base {
		next[k] = v
	}
	var moved []Key
	pt.overflow.Range(func(k, v any) bool {
		next[k.(Key)] = v.(*entry)
		moved = append(moved, k.(Key))
		return true
	})
	pt.keys.Store(&next)
	for _, k := range moved {
		pt.overflow.Delete(k)
	}
	pt.overflowN.Store(0)
}

// forEachEntry visits every key (base + overflow, deduplicated). The
// iteration order is unspecified; callers needing a stable view hold
// pt.mu (as Digest and Prune do). Without it every key created before
// the call is still visited: the overflow is read before the base,
// because a merge publishes the base holding the overflow's keys before
// it deletes them there.
func (pt *partition) forEachEntry(fn func(Key, *entry)) {
	if !pt.published.Load() {
		pt.publish()
	}
	var recent keyMap
	if pt.overflowN.Load() != 0 {
		recent = make(keyMap)
		pt.overflow.Range(func(k, v any) bool {
			recent[k.(Key)] = v.(*entry)
			return true
		})
	}
	base := *pt.keys.Load()
	for k, e := range base {
		fn(k, e)
	}
	for k, e := range recent {
		if _, dup := base[k]; !dup {
			fn(k, e)
		}
	}
}

// Store is the local storage engine. Safe for concurrent use.
type Store struct {
	mu  sync.Mutex // guards directory copy-on-write only
	dir atomic.Pointer[map[Partition]*partition]
}

// Errors returned by the engine.
var (
	// ErrPartitionBusy is returned by Begin when the partition already
	// has an active transaction — the OTP scheduler must never let two
	// transactions of one class run concurrently.
	ErrPartitionBusy = errors.New("storage: partition has an active transaction")
	// ErrTxnDone is returned by operations on a committed/aborted txn.
	ErrTxnDone = errors.New("storage: transaction already finished")
	// ErrCanceled is returned by BeginMultiWait when the caller's cancel
	// channel fires before the partitions free up.
	ErrCanceled = errors.New("storage: begin wait canceled")
	// ErrSnapshotPruned is returned by SnapshotReadAt for indexes below
	// the partition's prune watermark: the versions needed to answer the
	// read exactly may have been discarded, so the read fails loudly
	// instead of returning an incomplete snapshot.
	ErrSnapshotPruned = errors.New("storage: snapshot index below prune watermark")
)

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{}
	dir := make(map[Partition]*partition)
	s.dir.Store(&dir)
	return s
}

// lookup returns the partition or nil, lock-free.
func (s *Store) lookup(p Partition) *partition {
	return (*s.dir.Load())[p]
}

// part returns the partition, creating it if needed (copy-on-write on
// the directory; creation happens once per conflict class).
func (s *Store) part(p Partition) *partition {
	if pt := s.lookup(p); pt != nil {
		return pt
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.dir.Load()
	if pt, ok := old[p]; ok {
		return pt
	}
	next := make(map[Partition]*partition, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	pt := &partition{}
	empty := make(keyMap)
	pt.keys.Store(&empty)
	next[p] = pt
	s.dir.Store(&next)
	return pt
}

// Load seeds initial data (version index 0), bypassing transactions. Use
// before the replica starts processing: until something reads a
// partition, Load writes its keys in place, without the copy-on-write
// directory's overflow and folds. After that it is still correct, at the
// price of a runtime key creation.
func (s *Store) Load(p Partition, k Key, v Value) {
	pt := s.part(p)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.install(k, 0, v.clone())
}

// Get reads the latest committed value of a key, lock-free. The returned
// Value aliases the committed version and must not be modified.
func (s *Store) Get(p Partition, k Key) (Value, bool) {
	pt := s.lookup(p)
	if pt == nil {
		return nil, false
	}
	e := pt.getEntry(k)
	if e == nil {
		return nil, false
	}
	v, _ := e.load().latest()
	return v, v != nil
}

// searchVersions returns the position of the first version index
// > maxIndex in the ascending index column (manual binary search: the
// closure-free equivalent of sort.Search, which costs one indirect call
// per probe on this very hot path).
func searchVersions(idx []int64, maxIndex int64) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid] <= maxIndex {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SnapshotRead returns the value of the latest version of k with
// TOIndex <= maxIndex — the Section 5 snapshot rule. The boolean reports
// whether such a version exists (reads below the prune watermark report
// false; use SnapshotReadAt to distinguish them loudly).
func (s *Store) SnapshotRead(p Partition, k Key, maxIndex int64) (Value, bool) {
	v, _, ok, _ := s.SnapshotReadAt(p, k, maxIndex)
	return v, ok
}

// SnapshotReadAt is the error-reporting snapshot read, which also returns
// the TO index of the version observed: it returns ErrSnapshotPruned when
// maxIndex is below the partition's prune watermark (the exact snapshot
// may have been discarded), and ok=false when no version at or below
// maxIndex exists. Lock-free.
func (s *Store) SnapshotReadAt(p Partition, k Key, maxIndex int64) (Value, int64, bool, error) {
	pt := s.lookup(p)
	if pt == nil {
		return nil, 0, false, nil
	}
	if w := pt.pruned.Load(); maxIndex < w {
		return nil, 0, false, fmt.Errorf("%w: read at %d, watermark %d in %s",
			ErrSnapshotPruned, maxIndex, w, p)
	}
	e := pt.getEntry(k)
	if e == nil {
		return nil, 0, false, nil
	}
	st := e.load()
	// Fast path: reads at or past the chain tip take the newest version
	// without searching (the common case for fresh snapshots).
	if v, idx := st.latest(); idx <= maxIndex {
		return v, idx, true, nil
	}
	if i := searchVersions(st.idx, maxIndex); i > 0 {
		return st.vals[i-1], st.idx[i-1], true, nil
	}
	// No version at or below maxIndex. A Prune racing this read may have
	// advanced the watermark past maxIndex after the check above and
	// dropped the versions we needed — re-check so such a read still
	// fails loudly instead of reporting the key absent.
	if w := pt.pruned.Load(); maxIndex < w {
		return nil, 0, false, fmt.Errorf("%w: read at %d, watermark %d in %s",
			ErrSnapshotPruned, maxIndex, w, p)
	}
	return nil, 0, false, nil
}

// GetVersioned reads the latest committed value of a key together with
// the TO index of the transaction that wrote it. It backs the "dirty
// query" baseline used to demonstrate why Section 5 needs snapshots.
func (s *Store) GetVersioned(p Partition, k Key) (Value, int64, bool) {
	pt := s.lookup(p)
	if pt == nil {
		return nil, 0, false
	}
	e := pt.getEntry(k)
	if e == nil {
		return nil, 0, false
	}
	v, idx := e.load().latest()
	if v == nil {
		return nil, 0, false
	}
	return v, idx, true
}

// LastCommitted reports the TO index of the last transaction committed in
// the partition (0 if none). The query layer uses it to decide whether a
// snapshot at a given index is complete yet.
func (s *Store) LastCommitted(p Partition) int64 {
	pt := s.lookup(p)
	if pt == nil {
		return 0
	}
	return pt.lastCommitted.Load()
}

// PruneWatermark reports the partition's prune watermark: snapshot reads
// strictly below it fail (0 = never pruned).
func (s *Store) PruneWatermark(p Partition) int64 {
	pt := s.lookup(p)
	if pt == nil {
		return 0
	}
	return pt.pruned.Load()
}

// Keys lists the keys of a partition in sorted order.
func (s *Store) Keys(p Partition) []Key {
	pt := s.lookup(p)
	if pt == nil {
		return nil
	}
	var out []Key
	pt.forEachEntry(func(k Key, _ *entry) { out = append(out, k) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Partitions lists all partitions in sorted order.
func (s *Store) Partitions() []Partition {
	dir := *s.dir.Load()
	out := make([]Partition, 0, len(dir))
	for p := range dir {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Digest hashes the committed state (partition, key, current value) so
// replica convergence can be asserted cheaply. Partitions are hashed one
// at a time under their writer locks; for a stable digest, quiesce
// writers first (as the convergence checks do).
func (s *Store) Digest() uint64 {
	h := fnv.New64a()
	for _, p := range s.Partitions() {
		pt := s.lookup(p)
		pt.mu.Lock()
		var keys []Key
		entries := make(keyMap)
		pt.forEachEntry(func(k Key, e *entry) {
			keys = append(keys, k)
			entries[k] = e
		})
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			_, _ = h.Write([]byte(p))
			_, _ = h.Write([]byte{0})
			_, _ = h.Write([]byte(k))
			_, _ = h.Write([]byte{0})
			v, _ := entries[k].load().latest()
			_, _ = h.Write(v)
			_, _ = h.Write([]byte{0})
		}
		pt.mu.Unlock()
	}
	return h.Sum64()
}

// Prune advances the snapshot watermark to minSnapshot and drops, for
// every key, all versions strictly older than the newest version with
// TOIndex <= minSnapshot (which must be retained to serve snapshot reads
// at the watermark). Only keys with more than one version are visited
// (partition.prunable). The replica calls it with the oldest active query
// snapshot, so every read that can still be issued remains answerable
// exactly; reads below the watermark fail loudly (ErrSnapshotPruned).
// It returns the number of versions removed.
func (s *Store) Prune(minSnapshot int64) int {
	if minSnapshot <= 0 {
		return 0
	}
	removed := 0
	for _, p := range s.Partitions() {
		pt := s.lookup(p)
		pt.mu.Lock()
		if minSnapshot > pt.pruned.Load() {
			pt.pruned.Store(minSnapshot)
		}
		kept := pt.prunable[:0]
		for _, e := range pt.prunable {
			st := e.load()
			i := searchVersions(st.idx, minSnapshot)
			// Keep suffix [i-1:] — the last version at or before the
			// horizon plus everything newer.
			if i > 1 {
				removed += i - 1
				// Room for one more: a key written once between passes —
				// most are — appends its next version in place.
				n := len(st.idx) - (i - 1)
				st = &versionState{
					idx:  append(make([]int64, 0, n+1), st.idx[i-1:]...),
					vals: append(make([]Value, 0, n+1), st.vals[i-1:]...),
				}
				e.state.Store(st)
			}
			if len(st.idx) > 1 {
				kept = append(kept, e) // newer versions: a later pass's work
			} else {
				e.listed = false
			}
		}
		clear(pt.prunable[len(kept):])
		pt.prunable = kept
		pt.mu.Unlock()
	}
	return removed
}

// VersionCount reports the total number of stored versions (for GC tests).
func (s *Store) VersionCount() int {
	n := 0
	for _, p := range s.Partitions() {
		pt := s.lookup(p)
		pt.forEachEntry(func(_ Key, e *entry) {
			n += len(e.load().idx)
		})
	}
	return n
}

// Txn is a single-partition update transaction. It is not safe for
// concurrent use (one stored procedure runs in one goroutine). A finished
// Txn may be begun again (MultiTxn does): its buffers keep their arrays.
type Txn struct {
	pt   *partition
	p    Partition
	done bool

	// buffer holds the pending writes, one per key in first-write order. A
	// stored procedure writes a handful of keys, so finding one is a short
	// scan and the buffer costs no allocation once the slice has grown.
	buffer   []bufferedWrite
	readSet  []Key
	writeSet []Key
}

type bufferedWrite struct {
	key   Key
	value Value
}

// Begin starts an update transaction on partition p; mode must be
// Buffered. At most one transaction may be active per partition; the OTP
// scheduler guarantees this, and the store enforces it.
func (s *Store) Begin(p Partition, mode Mode) (*Txn, error) {
	if mode != Buffered {
		return nil, fmt.Errorf("storage: invalid mode %d", mode)
	}
	tx := new(Txn)
	if err := s.begin(tx, p); err != nil {
		return nil, err
	}
	return tx, nil
}

// begin makes tx — new or finished — the active transaction of p.
func (s *Store) begin(tx *Txn, p Partition) error {
	pt := s.part(p)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.active != nil {
		return fmt.Errorf("%w: %s", ErrPartitionBusy, p)
	}
	clear(tx.buffer) // drop the values; the keys' strings go with them
	*tx = Txn{pt: pt, p: p,
		buffer: tx.buffer[:0], readSet: tx.readSet[:0], writeSet: tx.writeSet[:0]}
	pt.active = tx
	return nil
}

// Read returns the value of k as seen by the transaction (its own writes
// first, then the committed state). The returned Value must not be
// modified.
func (t *Txn) Read(k Key) (Value, bool) {
	if t.done {
		return nil, false
	}
	t.readSet = append(t.readSet, k)
	if w := t.buffered(k); w != nil {
		return w.value, w.value != nil
	}
	e := t.pt.getEntry(k)
	if e == nil {
		return nil, false
	}
	v, _ := e.load().latest()
	return v, v != nil
}

// Write sets k to v within the transaction's private buffer, so it takes
// no lock; the last write of a key wins. v is copied; the caller may reuse
// its buffer.
func (t *Txn) Write(k Key, v Value) error {
	if t.done {
		return ErrTxnDone
	}
	t.writeSet = append(t.writeSet, k)
	if w := t.buffered(k); w != nil {
		w.value = v.clone()
	} else {
		t.buffer = append(t.buffer, bufferedWrite{k, v.clone()})
	}
	return nil
}

// buffered returns the pending write of k, nil when there is none.
func (t *Txn) buffered(k Key) *bufferedWrite {
	for i := range t.buffer {
		if t.buffer[i].key == k {
			return &t.buffer[i]
		}
	}
	return nil
}

// ReadSet returns the keys read so far (duplicates preserved, in order).
func (t *Txn) ReadSet() []Key { return append([]Key(nil), t.readSet...) }

// WriteSet returns the keys written so far (duplicates preserved, in order).
func (t *Txn) WriteSet() []Key { return append([]Key(nil), t.writeSet...) }

// Partition returns the transaction's partition.
func (t *Txn) Partition() Partition { return t.p }

// Abort rolls the transaction back: its buffered writes are discarded,
// and nothing else ever saw them.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.pt.mu.Lock()
	t.pt.release()
	t.pt.mu.Unlock()
	return nil
}

// Commit installs the transaction's writes as committed versions labelled
// with the definitive index toIndex. Conflicting transactions commit in
// TO order (Lemma 4.1), so version chains are append-only and ascending.
func (t *Txn) Commit(toIndex int64) error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	pt := t.pt
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if toIndex <= pt.lastCommitted.Load() {
		pt.release()
		return fmt.Errorf("storage: commit index %d not after last committed %d in %s",
			toIndex, pt.lastCommitted.Load(), t.p)
	}
	for _, w := range t.buffer {
		// The buffered value was cloned on the way in and becomes the
		// immutable committed version.
		pt.addVersion(w.key, toIndex, w.value)
	}
	// Publish the commit index last: a reader that observes it sees every
	// version state published above.
	pt.lastCommitted.Store(toIndex)
	pt.release()
	return nil
}

// ---------------------------------------------------------------------------
// Durability: checkpoints and replay application.
//
// A Checkpoint is a consistent cross-partition snapshot of the committed
// state at one definitive index: for every key, the latest version with
// TOIndex <= Index. Because versions are immutable once committed and
// conflicting transactions commit in definitive order, a checkpoint taken
// after all transactions <= Index have committed is exactly the state the
// paper's Section 5 snapshot rule would let a query observe at Index —
// the same mechanism serves recovery (serialize the checkpoint to disk)
// and live replica catch-up (stream it to a rejoining site).

// KeyVersion is one key's surviving version in a checkpoint.
type KeyVersion struct {
	// Key is the object identifier within its partition.
	Key Key
	// TOIndex is the definitive index of the version retained.
	TOIndex int64
	// Value is the committed value (nil preserved).
	Value Value
}

// PartitionCheckpoint is one partition's slice of a checkpoint.
type PartitionCheckpoint struct {
	// Partition names the conflict class.
	Partition Partition
	// LastCommitted is the partition's committed floor at the checkpoint
	// index: replayed records at or below it are already reflected in
	// Keys and must be skipped.
	LastCommitted int64
	// Keys holds, per key, the latest version with TOIndex <= the
	// checkpoint index.
	Keys []KeyVersion
}

// Checkpoint is a consistent snapshot of the whole store at Index.
type Checkpoint struct {
	// Index is the definitive commit index the snapshot is consistent at.
	Index int64
	// Partitions are the per-class slices, in sorted partition order.
	Partitions []PartitionCheckpoint
}

// ClassKeyValue is one write of a committed transaction, qualified by
// partition — the unit the write-ahead log records.
type ClassKeyValue struct {
	Partition Partition
	Key       Key
	Value     Value
}

// CheckpointAt captures a checkpoint of the committed state at maxIndex.
// The caller must ensure every transaction with definitive index <=
// maxIndex has committed (the replica waits on its per-class commit
// targets, exactly as Section 5 queries do) and that versions at maxIndex
// are pinned against pruning for the duration of the call.
func (s *Store) CheckpointAt(maxIndex int64) *Checkpoint {
	ck := &Checkpoint{Index: maxIndex}
	for _, p := range s.Partitions() {
		pt := s.lookup(p)
		pt.mu.Lock()
		pc := PartitionCheckpoint{Partition: p}
		if lc := pt.lastCommitted.Load(); lc <= maxIndex {
			pc.LastCommitted = lc
		} else {
			// Commits beyond the snapshot index may already have landed
			// (they are excluded below); the floor the checkpoint vouches
			// for is capped at its own index.
			pc.LastCommitted = maxIndex
		}
		pt.forEachEntry(func(k Key, e *entry) {
			st := e.load()
			if i := searchVersions(st.idx, maxIndex); i > 0 {
				pc.Keys = append(pc.Keys, KeyVersion{
					Key:     k,
					TOIndex: st.idx[i-1],
					Value:   st.vals[i-1],
				})
			}
		})
		pt.mu.Unlock()
		sort.Slice(pc.Keys, func(i, j int) bool { return pc.Keys[i].Key < pc.Keys[j].Key })
		ck.Partitions = append(ck.Partitions, pc)
	}
	return ck
}

// InstallCheckpoint loads a checkpoint into the store, replacing any
// overlapping keys: each key gets a single-version chain at its
// checkpointed index, the partition's committed floor is restored, and
// the prune watermark advances to the checkpoint index (state below it
// was never transferred, so snapshot reads below it fail loudly, exactly
// as after a Prune). Intended for empty or freshly seeded stores during
// seeding, recovery and rejoin, which it fills in place like Load; a
// partition nobody has read that holds no key yet gets all its keys from
// one allocation. The store shares the checkpoint's values (they are
// immutable, see the package doc), so one checkpoint may seed many
// stores.
func (s *Store) InstallCheckpoint(ck *Checkpoint) {
	for _, pc := range ck.Partitions {
		pt := s.part(pc.Partition)
		pt.mu.Lock()
		if !pt.installFresh(pc.Keys) {
			for _, kv := range pc.Keys {
				pt.install(kv.Key, kv.TOIndex, kv.Value)
			}
		}
		if pc.LastCommitted > pt.lastCommitted.Load() {
			pt.lastCommitted.Store(pc.LastCommitted)
		}
		if ck.Index > pt.pruned.Load() {
			pt.pruned.Store(ck.Index)
		}
		pt.mu.Unlock()
	}
}

// InstallCommit applies one logged commit during replay: the writes of
// the transaction with definitive index toIndex, grouped by partition.
// Application is idempotent per partition — a partition whose committed
// floor already covers toIndex is skipped, so replaying a log over a
// checkpoint (or replaying twice) converges to the same state. It
// reports whether any partition applied the writes.
func (s *Store) InstallCommit(toIndex int64, writes []ClassKeyValue) bool {
	applied := false
	for i := 0; i < len(writes); {
		p := writes[i].Partition
		j := i
		for j < len(writes) && writes[j].Partition == p {
			j++
		}
		pt := s.part(p)
		pt.mu.Lock()
		if toIndex > pt.lastCommitted.Load() {
			applied = true
			for _, w := range writes[i:j] {
				pt.addVersion(w.Key, toIndex, w.Value.clone())
			}
			pt.lastCommitted.Store(toIndex)
		}
		pt.mu.Unlock()
		i = j
	}
	return applied
}

// pendingWrites captures the transaction's writes as they will commit
// (last write wins per key), for write-ahead logging. Call before
// Commit; the returned values alias the transaction's buffers.
func (t *Txn) pendingWrites(out []ClassKeyValue) []ClassKeyValue {
	for _, w := range t.buffer {
		out = append(out, ClassKeyValue{Partition: t.p, Key: w.key, Value: w.value})
	}
	return out
}
