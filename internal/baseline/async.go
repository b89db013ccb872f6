// Package baseline implements the replication strategies the paper
// compares against:
//
//   - Conservative atomic-broadcast processing (execute only after the
//     definitive order is known) is the broadcast engine's delivery policy
//     abcast.WithConservativeDelivery — otpdb.ConservativeOrdering — under
//     the regular replica. No extra code is needed here, for fault
//     tolerance either: it is the same stack.
//   - AsyncReplica is the commercial-style asynchronous replication of
//     Section 1 ([20]): update transactions commit locally first and the
//     write sets propagate to other sites afterwards, with no total
//     order. It is fast — commit latency is purely local — but
//     concurrent conflicting updates are silently lost and replicas can
//     diverge, which is precisely the trade-off the paper's architecture
//     avoids.
package baseline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// StreamAsync carries write-set propagation messages.
const StreamAsync = "async.update"

// WriteSet is the propagated effect of a locally committed transaction.
type WriteSet struct {
	Partition storage.Partition
	Keys      []storage.Key
	Values    []storage.Value
}

// RegisterWire registers the baseline's message types with the gob codec.
func RegisterWire() { transport.Register(WriteSet{}) }

// AsyncStats counts replica events.
type AsyncStats struct {
	// LocalCommits counts transactions committed by local clients.
	LocalCommits uint64
	// RemoteApplies counts write sets applied from other sites.
	RemoteApplies uint64
}

// AsyncReplica is one site of a multi-master asynchronously replicated
// database. Updates commit locally and propagate in the background
// ("update coordination is done after transaction commit", Section 1).
type AsyncReplica struct {
	id    transport.NodeID
	ep    transport.Endpoint
	reg   *sproc.Registry
	store *storage.Store

	mu      sync.Mutex
	nextIdx map[storage.Partition]int64
	stats   AsyncStats
	stopped bool

	stop chan struct{}
	done chan struct{}
}

// ErrStopped is returned after Stop.
var ErrStopped = errors.New("baseline: replica stopped")

// NewAsync creates an asynchronous replica bound to ep.
func NewAsync(ep transport.Endpoint, reg *sproc.Registry, store *storage.Store) *AsyncReplica {
	if store == nil {
		store = storage.NewStore()
	}
	return &AsyncReplica{
		id:      ep.ID(),
		ep:      ep,
		reg:     reg,
		store:   store,
		nextIdx: make(map[storage.Partition]int64),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the apply loop for remote write sets.
func (r *AsyncReplica) Start() {
	go r.run()
}

// Stop halts the apply loop.
func (r *AsyncReplica) Stop() {
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
}

// Store returns the local storage engine.
func (r *AsyncReplica) Store() *storage.Store { return r.store }

// Stats returns a snapshot of the counters.
func (r *AsyncReplica) Stats() AsyncStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Exec runs an update procedure locally, commits it, and propagates the
// write set asynchronously. It returns once the local commit is durable —
// the low-latency behaviour the paper's Section 1 credits asynchronous
// schemes with.
func (r *AsyncReplica) Exec(proc string, args ...storage.Value) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	r.mu.Unlock()
	up, err := r.reg.Update(proc)
	if err != nil {
		return err
	}
	part := storage.Partition(up.Class)

	// Local execution. A remote apply may hold the partition briefly;
	// park on its release channel instead of spinning.
	stx, err := r.store.BeginWait(part, storage.Buffered, nil)
	if err != nil {
		return err
	}
	if up.Cost > 0 {
		time.Sleep(up.Cost)
	}
	uc := &asyncCtx{stx: stx, args: args}
	if _, perr := up.Fn(uc); perr != nil {
		_ = stx.Abort()
		return perr
	}
	// Collect the write set before committing (Commit consumes the txn).
	keys := stx.WriteSet()
	ws := WriteSet{Partition: part, Keys: make([]storage.Key, 0, len(keys)), Values: make([]storage.Value, 0, len(keys))}
	seen := make(map[storage.Key]bool, len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if seen[k] {
			continue
		}
		seen[k] = true
		v, _ := stx.Read(k)
		ws.Keys = append(ws.Keys, k)
		ws.Values = append(ws.Values, v)
	}
	r.mu.Lock()
	r.nextIdx[part]++
	idx := r.nextIdx[part]
	r.stats.LocalCommits++
	r.mu.Unlock()
	if err := stx.Commit(idx); err != nil {
		return fmt.Errorf("baseline: local commit: %w", err)
	}
	// Fire-and-forget propagation — the defining property (and flaw) of
	// asynchronous replication.
	for i := 0; i < r.ep.N(); i++ {
		if transport.NodeID(i) == r.id {
			continue
		}
		_ = r.ep.Send(transport.NodeID(i), StreamAsync, ws)
	}
	return nil
}

// Get reads the latest locally committed value.
func (r *AsyncReplica) Get(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	return r.store.Get(storage.Partition(class), key)
}

func (r *AsyncReplica) run() {
	defer close(r.done)
	in := r.ep.Subscribe(StreamAsync)
	for {
		select {
		case env, ok := <-in:
			if !ok {
				return
			}
			if ws, ok := env.Msg.(WriteSet); ok {
				r.apply(ws)
			}
		case <-r.stop:
			return
		}
	}
}

// apply installs a remote write set blindly (last writer wins by arrival
// order) — concurrent conflicting local updates are overwritten, which is
// how asynchronous replication loses updates.
func (r *AsyncReplica) apply(ws WriteSet) {
	stx, err := r.store.BeginWait(ws.Partition, storage.Buffered, nil)
	if err != nil {
		return
	}
	for i, k := range ws.Keys {
		_ = stx.Write(k, ws.Values[i])
	}
	r.mu.Lock()
	r.nextIdx[ws.Partition]++
	idx := r.nextIdx[ws.Partition]
	r.stats.RemoteApplies++
	r.mu.Unlock()
	_ = stx.Commit(idx)
}

// asyncCtx implements sproc.UpdateCtx directly over a storage txn.
type asyncCtx struct {
	stx  *storage.Txn
	args []storage.Value
}

var _ sproc.UpdateCtx = (*asyncCtx)(nil)

func (c *asyncCtx) Args() []storage.Value { return c.args }

func (c *asyncCtx) Read(key storage.Key) (storage.Value, bool) { return c.stx.Read(key) }

func (c *asyncCtx) Write(key storage.Key, v storage.Value) error { return c.stx.Write(key, v) }
