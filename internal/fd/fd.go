// Package fd implements a heartbeat failure detector of class ◇S (eventually
// strong): after some time, every crashed node is permanently suspected and
// at least one correct node is no longer suspected by anyone. The consensus
// engine (internal/consensus) uses it to rotate coordinators, which is all
// the OPT-ABcast fallback path needs for liveness.
//
// In an asynchronous system the detector is necessarily unreliable: a slow
// node may be suspected and later rehabilitated. The protocols above are
// safe under arbitrary suspicion mistakes; the detector affects liveness
// only.
package fd

import (
	"encoding/binary"
	"sync"
	"time"

	"otpdb/internal/events"
	"otpdb/internal/metrics"
	"otpdb/internal/transport"
)

// Stream is the transport stream used for heartbeats.
const Stream = "fd.hb"

// Heartbeat is the wire message. Reception alone refreshes the sender's
// lease; Inc is the sender's incarnation (a clock-derived value fixed at
// detector creation), which distinguishes a restarted or replaced
// process from its dead predecessor. Suspicion is otherwise keyed by
// NodeID only, so without the incarnation a fresh process could inherit
// its predecessor's stale suspicion (and, worse, a survivor that
// suspected the old incarnation would have no signal that the identity
// now denotes a different process).
//
//otp:fence Inc
type Heartbeat struct {
	Inc uint64
}

// tagHeartbeat is the heartbeat's wire tag (transport/wire.go has the
// table). Stable: changing it is a wire version change.
const tagHeartbeat = 0x08

// RegisterWire makes the detector's message type known to the TCP
// transport. Call once per process before ListenTCP nodes exchange
// traffic.
func RegisterWire() {
	transport.RegisterCodec(tagHeartbeat, Heartbeat.AppendWire, decodeHeartbeat)
}

// AppendWire appends the incarnation.
func (h Heartbeat) AppendWire(b []byte) ([]byte, error) {
	return binary.AppendUvarint(b, h.Inc), nil
}

func decodeHeartbeat(b []byte) (Heartbeat, error) {
	r := transport.NewWireReader(b)
	h := Heartbeat{Inc: r.Uvarint()}
	return h, r.Done()
}

// Suspector reports suspicion. It is the read interface consumed by the
// consensus engine; tests substitute scripted implementations.
type Suspector interface {
	// Suspected reports whether the node is currently suspected.
	Suspected(transport.NodeID) bool
}

// StaticSuspector is a fixed suspicion set, useful in tests and in
// deterministic simulations where no real failure detection is wanted.
type StaticSuspector map[transport.NodeID]bool

var _ Suspector = StaticSuspector{}

// Suspected implements Suspector.
func (s StaticSuspector) Suspected(n transport.NodeID) bool { return s[n] }

// timeoutIntervals is how many heartbeat periods of silence make a node
// suspected.
const timeoutIntervals = 4

// Config parameterises a Detector.
type Config struct {
	// Interval is the heartbeat period. Defaults to 25 ms. A node silent
	// for timeoutIntervals periods is suspected.
	Interval time.Duration
	// timeout overrides that silence threshold; in-package tests only.
	timeout time.Duration
	// Incarnation, when non-zero, overrides the clock-derived process
	// incarnation stamped on heartbeats. Durable deployments pass a
	// transport.PersistentIncarnation so a clock stepping backwards
	// across a restart cannot mint a stale one.
	Incarnation uint64
	// Metrics, when non-nil, registers suspicion telemetry (suspect
	// events, false-suspect count, suspicion durations) under the
	// scope's labels.
	Metrics *metrics.Scope
	// Events, when non-nil, receives suspect/clear flight-recorder
	// entries so the rare transitions survive in the causal log.
	Events *events.Recorder
}

// Detector broadcasts heartbeats and tracks peer liveness. The monitored
// set follows the group membership: SetMembers retargets it on epoch
// changes, and a heartbeat with a newer sender incarnation resets that
// sender's lease and suspicion (a replaced or restarted site starts with
// a clean slate instead of lingering under its predecessor's suspicion).
type Detector struct {
	ep       transport.Endpoint
	interval time.Duration
	timeout  time.Duration
	inc      uint64 // this process's incarnation, stamped on heartbeats
	events   *events.Recorder

	mu          sync.Mutex
	lastSeen    map[transport.NodeID]time.Time
	lastInc     map[transport.NodeID]uint64 // newest incarnation heard per node
	suspected   map[transport.NodeID]bool
	suspectedAt map[transport.NodeID]time.Time // start of the current suspicion stretch
	onChange    []func(node transport.NodeID, suspected bool)

	// Telemetry: every suspicion flip counts; an un-suspect (the node
	// proved alive) is by definition a false suspicion, and its
	// duration is how long the detector was wrong.
	suspects     *metrics.Counter
	falseSusp    *metrics.Counter
	suspDuration *metrics.Histogram

	stop chan struct{}
	done chan struct{}
}

var _ Suspector = (*Detector)(nil)

// New creates a detector attached to ep. Call Start to begin monitoring.
func New(ep transport.Endpoint, cfg Config) *Detector {
	if cfg.Interval <= 0 {
		cfg.Interval = 25 * time.Millisecond
	}
	if cfg.timeout <= 0 {
		cfg.timeout = timeoutIntervals * cfg.Interval
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = uint64(time.Now().UnixNano())
	}
	return &Detector{
		ep:           ep,
		interval:     cfg.Interval,
		timeout:      cfg.timeout,
		inc:          cfg.Incarnation,
		events:       cfg.Events,
		lastSeen:     make(map[transport.NodeID]time.Time),
		lastInc:      make(map[transport.NodeID]uint64),
		suspected:    make(map[transport.NodeID]bool),
		suspectedAt:  make(map[transport.NodeID]time.Time),
		suspects:     cfg.Metrics.Counter("fd_suspect_total"),
		falseSusp:    cfg.Metrics.Counter("fd_false_suspect_total"),
		suspDuration: cfg.Metrics.Histogram("fd_suspicion_seconds"),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// OnChange registers a callback invoked (from the detector goroutine) when
// a node's suspicion status flips. Register before Start.
func (d *Detector) OnChange(fn func(node transport.NodeID, suspected bool)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onChange = append(d.onChange, fn)
}

// Start begins heartbeating and monitoring.
func (d *Detector) Start() {
	now := time.Now()
	d.mu.Lock()
	for i := 0; i < d.ep.N(); i++ {
		d.lastSeen[transport.NodeID(i)] = now
	}
	d.mu.Unlock()
	go d.run()
}

// Stop halts the detector and waits for its goroutine.
func (d *Detector) Stop() {
	close(d.stop)
	<-d.done
}

// Suspected implements Suspector.
func (d *Detector) Suspected(n transport.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspected[n]
}

// SuspectedSet returns a snapshot of all currently suspected nodes.
func (d *Detector) SuspectedSet() []transport.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []transport.NodeID
	for n, s := range d.suspected {
		if s {
			out = append(out, n)
		}
	}
	return out
}

// SetMembers retargets the detector at a new membership: nodes outside
// the set are dropped (survivors stop tracking the ghost — the transport
// layer stops heartbeating it when its peer link is removed), new nodes
// start with a fresh lease, and a retained node that was suspected is
// given a fresh lease and unsuspected — the epoch change is a statement
// that the group composition was re-decided, so stale suspicion must not
// carry across it (a genuinely dead member is re-suspected one timeout
// later). Safe to call from membership-change subscribers.
func (d *Detector) SetMembers(ids []transport.NodeID) {
	now := time.Now()
	keep := make(map[transport.NodeID]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	d.mu.Lock()
	for n := range d.lastSeen {
		if !keep[n] {
			delete(d.lastSeen, n)
			delete(d.suspected, n)
			delete(d.suspectedAt, n)
		}
	}
	// Incarnation floors reset wholesale: the epoch change asserts the
	// group composition was re-decided, and a replaced identity's fresh
	// process may have a clock behind its dead predecessor's — holding
	// the old floor would drop every heartbeat it ever sends and
	// suspect it permanently. The floor of a retained member simply
	// re-establishes itself at its next heartbeat.
	d.lastInc = make(map[transport.NodeID]uint64)
	var cleared []transport.NodeID
	for _, id := range ids {
		if _, tracked := d.lastSeen[id]; !tracked {
			d.lastSeen[id] = now
			continue
		}
		if d.suspected[id] {
			d.suspected[id] = false
			// Cleared by the epoch change, not by a heartbeat — record
			// the stretch's duration but don't count it false.
			if at, ok := d.suspectedAt[id]; ok {
				d.suspDuration.Observe(now.Sub(at))
				delete(d.suspectedAt, id)
			}
			d.lastSeen[id] = now
			cleared = append(cleared, id)
		}
	}
	callbacks := d.onChange
	d.mu.Unlock()
	for _, n := range cleared {
		d.events.Record(int(d.ep.ID()), events.KindClear, "peer", n.String(), "reason", "epoch-change")
		for _, fn := range callbacks {
			fn(n, false)
		}
	}
}

func (d *Detector) run() {
	defer close(d.done)
	in := d.ep.Subscribe(Stream)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	_ = d.ep.Broadcast(Stream, Heartbeat{Inc: d.inc})
	for {
		select {
		case env, ok := <-in:
			if !ok {
				return
			}
			inc := uint64(0)
			if hb, ok := env.Msg.(Heartbeat); ok {
				inc = hb.Inc
			}
			d.refresh(env.From, inc)
		case <-ticker.C:
			_ = d.ep.Broadcast(Stream, Heartbeat{Inc: d.inc})
			d.sweep()
		case <-d.stop:
			return
		}
	}
}

func (d *Detector) refresh(n transport.NodeID, inc uint64) {
	d.mu.Lock()
	if _, tracked := d.lastSeen[n]; !tracked {
		// Not a member: a removed site's process may keep heartbeating
		// until the operator stops it. Re-admitting it here would make
		// the detector suspect (and report) a ghost outside the group
		// forever once that process finally dies; membership is decided
		// by SetMembers, not by whoever still sends traffic.
		d.mu.Unlock()
		return
	}
	switch {
	case inc > d.lastInc[n]:
		// A newer incarnation of this identity: whatever we believed
		// about the old process is void — lease and suspicion reset below.
		d.lastInc[n] = inc
	case inc < d.lastInc[n]:
		// A heartbeat from a dead incarnation (a reconnecting transport
		// retransmitting its backlog). It says nothing about the live
		// identity: refreshing the lease here is exactly the staleness
		// that would keep a ghost looking alive, so drop it.
		d.mu.Unlock()
		return
	}
	d.lastSeen[n] = time.Now()
	flipped := d.suspected[n]
	if flipped {
		d.suspected[n] = false
		// The node proved alive: the whole suspicion stretch was a
		// detector mistake (◇S is unreliable by design) — count it and
		// record how long the mistake lasted.
		d.falseSusp.Inc()
		if at, ok := d.suspectedAt[n]; ok {
			d.suspDuration.Observe(time.Since(at))
			delete(d.suspectedAt, n)
		}
	}
	callbacks := d.onChange
	d.mu.Unlock()
	if flipped {
		d.events.Record(int(d.ep.ID()), events.KindClear, "peer", n.String(), "reason", "heartbeat")
		for _, fn := range callbacks {
			fn(n, false)
		}
	}
}

func (d *Detector) sweep() {
	now := time.Now()
	d.mu.Lock()
	var newly []transport.NodeID
	for n, seen := range d.lastSeen {
		if n == d.ep.ID() {
			continue
		}
		if !d.suspected[n] && now.Sub(seen) > d.timeout {
			d.suspected[n] = true
			d.suspectedAt[n] = now
			d.suspects.Inc()
			newly = append(newly, n)
		}
	}
	callbacks := d.onChange
	d.mu.Unlock()
	for _, n := range newly {
		d.events.Record(int(d.ep.ID()), events.KindSuspect, "peer", n.String())
		for _, fn := range callbacks {
			fn(n, true)
		}
	}
}
