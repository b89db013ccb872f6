// Package events is the cluster's flight recorder: a bounded
// structured log of rare-but-load-bearing transitions — epoch changes,
// failure-detector suspicions, auto-replace rounds, state-transfer
// negotiations, chaos fault injections and repairs.
// Unlike the metrics registry (continuous rates) and the trace ring
// (per-transaction lifecycles), the recorder answers "what sequence of
// rare events led here": each entry is a kind plus key=value fields,
// retained in a fixed ring, streamable live (Watch feeds otpd's WATCH
// verb) and dumpable as JSON when an invariant breaks.
package events

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Event kinds recorded by the runtime. Emitters are free to add
// ad-hoc kinds; these are the taxonomy the tooling knows about.
const (
	KindEpochChange = "epoch-change" // membership epoch committed
	KindSuspect     = "suspect"      // failure detector suspects a peer
	KindClear       = "clear"        // suspicion cleared (peer answered)
	KindReplace     = "auto-replace" // auto-replacement round outcome
	KindStatex      = "statex"       // state transfer negotiation/serve
	KindFault       = "fault"        // chaos harness fault injection
	KindRepair      = "repair"       // chaos harness repair
	KindViolation   = "violation"    // invariant violation detected
)

// Event is one recorded transition.
type Event struct {
	At     time.Time         `json:"at"`
	Site   int               `json:"site"`
	Kind   string            `json:"kind"`
	Fields map[string]string `json:"fields,omitempty"`
}

// String renders "kind site=N k=v ..." with fields in sorted order.
func (e Event) String() string {
	out := e.Kind
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out += " " + k + "=" + e.Fields[k]
	}
	return out
}

// Recorder is a fixed-capacity ring of events with live subscribers.
// Record is mutex-guarded and cheap; a nil *Recorder discards
// everything, so emitters thread it unconditionally.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	subs map[int]chan Event
	nsub int
}

// NewRecorder creates a recorder retaining the last capacity events
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity), subs: make(map[int]chan Event)}
}

// Record appends one event; kv is alternating field keys and values (a
// trailing odd key is dropped). Live subscribers receive it
// non-blocking — a stalled watcher drops events rather than stalling
// the emitter.
func (r *Recorder) Record(site int, kind string, kv ...string) {
	if r == nil {
		return
	}
	ev := Event{At: time.Now(), Site: site, Kind: kind}
	if len(kv) >= 2 {
		ev.Fields = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Fields[kv[i]] = kv[i+1]
		}
	}
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	for _, ch := range r.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	r.mu.Unlock()
}

// Events returns the retained events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event{}, r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Watch subscribes to future events: returns a buffered channel and a
// cancel function that unsubscribes and closes it. Events recorded
// while the channel is full are dropped for this subscriber only.
func (r *Recorder) Watch(buffer int) (<-chan Event, func()) {
	if r == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buffer < 1 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	r.mu.Lock()
	id := r.nsub
	r.nsub++
	r.subs[id] = ch
	r.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			r.mu.Lock()
			delete(r.subs, id)
			r.mu.Unlock()
			close(ch)
		})
	}
}

// DumpJSON renders the retained events as indented JSON — the
// artifact a failed chaos run ships with its violation report.
func (r *Recorder) DumpJSON() []byte {
	evs := r.Events()
	if evs == nil {
		evs = []Event{}
	}
	out, err := json.MarshalIndent(evs, "", "  ")
	if err != nil {
		return []byte("[]")
	}
	return out
}
