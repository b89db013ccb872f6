// Package sproc implements the paper's transaction model (Section 2.2):
// all data access happens through predefined stored procedures, one
// transaction per procedure invocation. Because procedures are predefined,
// each one declares up front whether it is an update (bound to a single
// conflict class, broadcast to all sites) or a read-only query (executed
// locally against a snapshot, Section 5).
package sproc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"otpdb/internal/storage"
)

// ClassID names a conflict class; it doubles as the storage partition
// name (classes access disjoint partitions, Section 2.3).
type ClassID string

// UpdateCtx is the data-access interface handed to update procedures. All
// keys implicitly live in the procedure's conflict-class partition.
type UpdateCtx interface {
	// Read returns the value of a key as seen by the transaction.
	Read(key storage.Key) (storage.Value, bool)
	// Write sets a key within the transaction.
	Write(key storage.Key, v storage.Value) error
	// Args returns the invocation arguments.
	Args() []storage.Value
}

// QueryCtx is the data-access interface handed to read-only queries. A
// query may read multiple conflict classes (Section 5); every read is
// served from the query's consistent snapshot.
type QueryCtx interface {
	// Read returns the snapshot value of a key in a class.
	Read(class ClassID, key storage.Key) (storage.Value, bool)
	// Args returns the invocation arguments.
	Args() []storage.Value
}

// UpdateFn is the body of an update procedure. The returned Value is the
// procedure's result: it is computed deterministically at every site, and
// the submitting site hands it back to the client through its transaction
// handle (Result.Value at the otpdb layer). A nil Value is fine for
// procedures with nothing to report. Returning an error aborts nothing at
// the replication level — updates are deterministic and must not fail on
// valid input; an error is reported as a programming bug.
type UpdateFn func(ctx UpdateCtx) (storage.Value, error)

// QueryFn is the body of a read-only query; it returns the query result.
type QueryFn func(ctx QueryCtx) (storage.Value, error)

// Update is a registered update procedure.
type Update struct {
	// Name is the procedure's unique name.
	Name string
	// Class is the conflict class: the transaction may touch only this
	// class's partition, and conflicts are assumed against every other
	// transaction of the class.
	Class ClassID
	// Fn is the procedure body.
	Fn UpdateFn
	// Cost is an optional simulated service time, the execution time E
	// of E3's transactions (`otpbench overlap`). The executor waits Cost
	// in transport.Dwell before running Fn; an abort ends the wait.
	Cost time.Duration

	classes []ClassID // {Class}, built at registration for UpdateClasses
}

// Query is a registered read-only procedure.
type Query struct {
	// Name is the procedure's unique name.
	Name string
	// Fn is the procedure body.
	Fn QueryFn
}

// MultiUpdateCtx is the data-access interface of multi-class update
// procedures (the finer-granularity model of the companion report [13]):
// reads and writes are class-qualified, restricted to the declared set.
type MultiUpdateCtx interface {
	// Read returns the value of a key in one of the declared classes.
	Read(class ClassID, key storage.Key) (storage.Value, bool)
	// Write sets a key in one of the declared classes.
	Write(class ClassID, key storage.Key, v storage.Value) error
	// Args returns the invocation arguments.
	Args() []storage.Value
}

// MultiUpdateFn is the body of a multi-class update procedure. Like
// UpdateFn, the returned Value is the procedure's result, delivered to
// the submitting client.
type MultiUpdateFn func(ctx MultiUpdateCtx) (storage.Value, error)

// MultiUpdate declares an update procedure spanning several conflict
// classes. It conflicts with every transaction sharing any of its
// classes; the scheduler runs it only when it heads all of their queues.
type MultiUpdate struct {
	// Name is the procedure's unique name.
	Name string
	// Classes is the set of conflict classes the procedure may touch.
	// For a Dynamic procedure this is only the fallback set; each
	// Request may carry its own.
	Classes []ClassID
	// Fn is the procedure body.
	Fn MultiUpdateFn
	// Cost is an optional simulated service time.
	Cost time.Duration
	// Dynamic marks a procedure whose conflict classes vary per
	// invocation: the broadcast Request carries the class set the
	// scheduler and executor use (Request.Classes), overriding Classes.
	// The cross-shard prepare (internal/shard) is the canonical user —
	// it holds exactly the classes of the transaction it prepares.
	Dynamic bool
}

// TxnControl exposes two scheduler signals to running update procedures.
// The executor's contexts implement it; procedures that must block
// mid-body (the cross-shard prepare parks at the head of its class
// queues until the commit decision arrives) type-assert for it.
type TxnControl interface {
	// Definitive is closed once this transaction's definitive
	// total-order position is fixed: the transaction has been
	// TO-delivered, and since it is running (at the head of all its
	// class queues) no later delivery can displace or abort this
	// attempt. State observed after Definitive is the state every
	// replica observes for this transaction.
	Definitive() <-chan struct{}
	// AbortSignal is closed when the Correctness Check undoes this
	// attempt; the procedure should perform one more context access
	// (which reports the abort to the executor) and return.
	AbortSignal() <-chan struct{}
}

// Errors returned by the registry.
var (
	// ErrDuplicateProc reports a name collision at registration.
	ErrDuplicateProc = errors.New("sproc: procedure already registered")
	// ErrUnknownProc reports a lookup of an unregistered name.
	ErrUnknownProc = errors.New("sproc: unknown procedure")
)

// Registry holds the stored procedures of a database. One registry is
// shared by all replicas of a cluster (procedures must be identical
// everywhere for deterministic re-execution).
type Registry struct {
	mu      sync.RWMutex
	updates map[string]Update
	multis  map[string]MultiUpdate
	queries map[string]Query
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		updates: make(map[string]Update),
		multis:  make(map[string]MultiUpdate),
		queries: make(map[string]Query),
	}
}

// taken reports whether a name is already registered in any namespace.
// Callers must hold r.mu.
func (r *Registry) taken(name string) bool {
	if _, ok := r.updates[name]; ok {
		return true
	}
	if _, ok := r.multis[name]; ok {
		return true
	}
	_, ok := r.queries[name]
	return ok
}

// RegisterUpdate adds an update procedure.
func (r *Registry) RegisterUpdate(u Update) error {
	if u.Name == "" || u.Class == "" || u.Fn == nil {
		return fmt.Errorf("sproc: update needs name, class and body")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(u.Name) {
		return fmt.Errorf("%w: %s", ErrDuplicateProc, u.Name)
	}
	u.classes = []ClassID{u.Class}
	r.updates[u.Name] = u
	return nil
}

// RegisterMulti adds a multi-class update procedure.
func (r *Registry) RegisterMulti(u MultiUpdate) error {
	if u.Name == "" || len(u.Classes) == 0 || u.Fn == nil {
		return fmt.Errorf("sproc: multi-update needs name, classes and body")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(u.Name) {
		return fmt.Errorf("%w: %s", ErrDuplicateProc, u.Name)
	}
	u.Classes = slices.Clone(u.Classes)
	r.multis[u.Name] = u
	return nil
}

// RegisterQuery adds a read-only procedure.
func (r *Registry) RegisterQuery(q Query) error {
	if q.Name == "" || q.Fn == nil {
		return fmt.Errorf("sproc: query needs name and body")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(q.Name) {
		return fmt.Errorf("%w: %s", ErrDuplicateProc, q.Name)
	}
	r.queries[q.Name] = q
	return nil
}

// Multi looks up a multi-class update procedure.
func (r *Registry) Multi(name string) (MultiUpdate, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.multis[name]
	if !ok {
		return MultiUpdate{}, fmt.Errorf("%w: %s", ErrUnknownProc, name)
	}
	return u, nil
}

// UpdateClasses returns the class set of any update procedure (single- or
// multi-class) by name. The slice is the registry's own — every submission
// and every delivery asks — and must not be modified.
func (r *Registry) UpdateClasses(name string) ([]ClassID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if u, ok := r.updates[name]; ok {
		return u.classes, nil
	}
	if u, ok := r.multis[name]; ok {
		return u.Classes, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownProc, name)
}

// Update looks up an update procedure.
func (r *Registry) Update(name string) (Update, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.updates[name]
	if !ok {
		return Update{}, fmt.Errorf("%w: %s", ErrUnknownProc, name)
	}
	return u, nil
}

// Query looks up a read-only procedure.
func (r *Registry) Query(name string) (Query, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	q, ok := r.queries[name]
	if !ok {
		return Query{}, fmt.Errorf("%w: %s", ErrUnknownProc, name)
	}
	return q, nil
}

// Request is the broadcast payload of an update transaction: the
// procedure name plus its arguments. Stored procedures make requests tiny
// (Section 2.2) — the whole interaction ships in one message. Classes is
// set only for Dynamic multi-class procedures and carries the conflict
// classes of this particular invocation. Trace, when set, is the
// cluster-wide trace ID of the logical transaction this request
// belongs to; it rides the payload so every replica's span records can
// be stitched across sites and shards.
type Request struct {
	Proc    string
	Args    []storage.Value
	Classes []ClassID
	Trace   string
}

// TraceID reports the request's cluster-wide trace ID; it satisfies
// the transport layer's TraceCarrier so TCP frames can surface the ID
// in their headers without decoding the payload.
func (r Request) TraceID() string { return r.Trace }

// RequestClasses resolves the conflict classes of a request: the
// request-carried set for a Dynamic multi-class procedure, the declared
// set otherwise. Carrying classes on a non-dynamic procedure is an
// error — the declaration is the contract every replica schedules by.
func (r *Registry) RequestClasses(req Request) ([]ClassID, error) {
	if len(req.Classes) == 0 {
		return r.UpdateClasses(req.Proc)
	}
	u, err := r.Multi(req.Proc)
	if err != nil {
		return nil, err
	}
	if !u.Dynamic {
		return nil, fmt.Errorf("sproc: %s is not dynamic; request-carried classes rejected", req.Proc)
	}
	out := make([]ClassID, len(req.Classes))
	copy(out, req.Classes)
	return out, nil
}
