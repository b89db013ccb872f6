package transport

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MemOption configures a Hub.
type MemOption func(*Hub)

// WithDelay adds a fixed delivery delay to every message.
func WithDelay(d time.Duration) MemOption {
	return func(h *Hub) { h.baseDelay = d }
}

// WithJitter adds a uniformly random extra delay in [0, d) per message.
// Every message draws its own, so any two messages — from different
// senders or from the same one — swap whenever they are sent closer
// together than the difference of their draws, however large the base
// delay: useful for stressing protocols beyond the FIFO guarantee they
// rely on from TCP. Without jitter a delayed link is FIFO: messages
// deliver in due order, and equal due times in the order they were sent.
func WithJitter(d time.Duration) MemOption {
	return func(h *Hub) { h.jitter = d }
}

// WithSeed seeds the hub's random source (jitter, drop decisions).
func WithSeed(seed int64) MemOption {
	return func(h *Hub) { h.rng = rand.New(rand.NewSource(seed)) }
}

// LinkProfile shapes one directed link of a Hub — the WAN model the
// chaos harness drives. Delay/Jitter override the hub-wide settings for
// the link. Loss is the per-message probability of a modeled packet
// loss; because the in-process transport promises reliable channels
// (the protocols above assume TCP-like links), a "lost" message is not
// dropped but charged RetransmitDelay and re-rolled — the latency shape
// of a retransmission timeout, with reliability intact. Profiles are
// directional: SetLink(a, b, p) shapes only a→b traffic, so asymmetric
// routes (and asymmetric congestion) are expressible.
type LinkProfile struct {
	// Delay is the fixed one-way delay for the link.
	Delay time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the per-message probability of a modeled loss in [0, 1).
	Loss float64
	// RetransmitDelay is charged per modeled loss (default 200 ms, the
	// shape of a retransmission timeout). Losses re-roll, so the charge
	// is geometric: a 30%-loss link occasionally pays several RTOs.
	RetransmitDelay time.Duration
}

// link identifies a directed hub link.
type link struct{ from, to NodeID }

// delivery is one delayed message on its way: what route decided, kept
// until the delivery goroutine hands env to dst at due.
type delivery struct {
	due time.Time
	seq uint64 // route order; breaks ties between equal due times
	dst *memEndpoint
	env Envelope
}

func (d *delivery) before(o *delivery) bool {
	if d.due.Equal(o.due) {
		return d.seq < o.seq
	}
	return d.due.Before(o.due)
}

// deliveryHeap is a binary min-heap on (due, seq). It is typed, not
// container/heap, so that a push does not box its element.
type deliveryHeap []delivery

func (q *deliveryHeap) push(d delivery) {
	*q = append(*q, d)
	s := *q
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (q *deliveryHeap) pop() delivery {
	s := *q
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = delivery{} // drop the envelope's references
	s = s[:last]
	*q = s
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if s[c].before(&s[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Hub is an in-process transport connecting n endpoints. It provides
// reliable FIFO channels by default; delay and jitter options can weaken
// timing (never reliability) and Partition/Crash inject failures.
type Hub struct {
	mu        sync.Mutex
	nodes     []*memEndpoint
	baseDelay time.Duration
	jitter    time.Duration
	rng       *rand.Rand
	parted    [][]bool
	crashed   []bool
	links     map[link]LinkProfile
	closed    bool

	// Delayed messages wait in queue for the delivery goroutine, which
	// the first of them starts: a hub that never delays has none. The
	// goroutine sleeps until the earliest due time; route wakes it when
	// a message falls due before wakeAt.
	queue   deliveryHeap
	seq     uint64
	sleeper *sleeper      // nil until the delivery goroutine is started
	done    chan struct{} // closed when the delivery goroutine has exited
	asleep  bool          // the goroutine is in (or about to enter) its sleep
	wakeAt  time.Time     // what that sleep ends at; zero: no deadline
}

// NewHub creates a hub with n endpoints.
func NewHub(n int, opts ...MemOption) *Hub {
	h := &Hub{
		rng:     rand.New(rand.NewSource(1)),
		parted:  make([][]bool, n),
		crashed: make([]bool, n),
	}
	for i := range h.parted {
		h.parted[i] = make([]bool, n)
	}
	for _, opt := range opts {
		opt(h)
	}
	h.nodes = make([]*memEndpoint, n)
	for i := 0; i < n; i++ {
		h.nodes[i] = &memEndpoint{
			hub: h,
			id:  NodeID(i),
			box: newMailbox(),
		}
	}
	return h
}

// Endpoint returns node i's endpoint.
func (h *Hub) Endpoint(i NodeID) Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[i]
}

// Endpoints returns all endpoints in node order.
func (h *Hub) Endpoints() []Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Endpoint, len(h.nodes))
	for i, n := range h.nodes {
		out[i] = n
	}
	return out
}

// Len reports the number of nodes the hub carries (crashed included).
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.nodes)
}

// Add grows the hub by one node and returns its endpoint — the
// in-process transport half of admitting a new site to the group. The
// new node starts connected to every existing node.
func (h *Hub) Add() Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := NodeID(len(h.nodes))
	for i := range h.parted {
		h.parted[i] = append(h.parted[i], false)
	}
	h.parted = append(h.parted, make([]bool, len(h.nodes)+1))
	h.crashed = append(h.crashed, false)
	ep := &memEndpoint{hub: h, id: id, box: newMailbox()}
	h.nodes = append(h.nodes, ep)
	return ep
}

// Partition disconnects a and b in both directions.
func (h *Hub) Partition(a, b NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.parted[a][b] = true
	h.parted[b][a] = true
}

// Heal reconnects a and b.
func (h *Hub) Heal(a, b NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.parted[a][b] = false
	h.parted[b][a] = false
}

// SetLink installs a fault profile on the directed link from → to,
// replacing any previous profile (and, for that link, the hub-wide
// delay/jitter). Safe to call while traffic flows; messages already
// scheduled keep their old delay.
func (h *Hub) SetLink(from, to NodeID, p LinkProfile) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.links == nil {
		h.links = make(map[link]LinkProfile)
	}
	if p.Loss > 0 && p.RetransmitDelay <= 0 {
		p.RetransmitDelay = 200 * time.Millisecond
	}
	h.links[link{from, to}] = p
}

// ClearLink removes the fault profile of the directed link from → to,
// restoring the hub-wide delay/jitter.
func (h *Hub) ClearLink(from, to NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.links, link{from, to})
}

// ClearLinks removes every per-link fault profile.
func (h *Hub) ClearLinks() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.links = nil
}

// Crash makes a node silently drop all traffic, modelling a crash-stop
// failure.
func (h *Hub) Crash(n NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashed[n] = true
}

// Restart revives a crashed node with a fresh endpoint (fresh mailbox) —
// the transport-level model of a process restart. Messages sent while
// the node was down are gone for good; the returned endpoint receives
// only traffic routed after the restart. The old endpoint is closed;
// in-flight deliveries addressed to it are dropped.
func (h *Hub) Restart(n NodeID) Endpoint {
	h.mu.Lock()
	old := h.nodes[n]
	fresh := &memEndpoint{hub: h, id: n, box: newMailbox()}
	h.nodes[n] = fresh
	h.crashed[n] = false
	h.mu.Unlock()
	_ = old.Close()
	return fresh
}

// Close shuts down every endpoint. Messages still on their way are
// discarded, not waited for; the delivery goroutine, if one was started,
// has exited when Close returns.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.queue = nil
	nodes := append([]*memEndpoint(nil), h.nodes...)
	sleeper, done := h.sleeper, h.done
	h.mu.Unlock()
	if sleeper != nil {
		sleeper.wake()
		<-done
	}
	for _, n := range nodes {
		_ = n.Close()
	}
}

// Inject routes an envelope as if sent by `from`, even when that node
// is crashed — the ghost-incarnation replay primitive: a survivor's
// transport retransmitting a dead process's backlog looks exactly like
// this. Partitions and the destination's crash state still apply.
func (h *Hub) Inject(from, to NodeID, stream string, msg any) {
	h.route(from, to, Envelope{From: from, Stream: stream, Msg: msg}, true)
}

// route delivers an envelope from -> to, applying failures and delay.
// ghost bypasses the sender's crash state (see Inject).
func (h *Hub) route(from, to NodeID, env Envelope, ghost bool) {
	h.mu.Lock()
	if h.closed || (h.crashed[from] && !ghost) || h.crashed[to] || h.parted[from][to] {
		h.mu.Unlock()
		return
	}
	delay, jitter := h.baseDelay, h.jitter
	if from == to {
		// A node's message to itself crosses no network and is never
		// delayed, whatever the hub or a LinkProfile says — the one rule of
		// both transports (tcpnet hands a sender its copy before it
		// transmits): a site hears its own broadcast when it sends it, and
		// everybody else one delay later.
		delay, jitter = 0, 0
	} else if p, ok := h.links[link{from, to}]; ok {
		delay, jitter = p.Delay, p.Jitter
		for p.Loss > 0 && h.rng.Float64() < p.Loss {
			delay += p.RetransmitDelay
		}
	}
	if jitter > 0 {
		delay += time.Duration(h.rng.Int63n(int64(jitter)))
	}
	dst := h.nodes[to]
	if delay == 0 {
		h.mu.Unlock()
		dst.box.enqueue(env)
		return
	}
	due := time.Now().Add(delay)
	h.seq++
	h.queue.push(delivery{due: due, seq: h.seq, dst: dst, env: env})
	if h.sleeper == nil {
		h.sleeper = newSleeper()
		h.done = make(chan struct{})
		go h.deliver()
	}
	// A message must not be held behind a sleep toward a later one.
	wake := h.asleep && (h.wakeAt.IsZero() || due.Before(h.wakeAt))
	if wake {
		h.wakeAt = due
	}
	h.mu.Unlock()
	if wake {
		h.sleeper.wake()
	}
}

// deliver is the hub's delivery goroutine: it hands over every queued
// message that has fallen due, in (due, seq) order, then sleeps until the
// next due time or until route or Close wakes it. A message whose
// destination is crashed when it falls due is dropped; one addressed to
// an endpoint Restart has since replaced is dropped by that endpoint.
func (h *Hub) deliver() {
	defer close(h.done)

	var due []delivery
	for {
		h.mu.Lock()
		h.asleep = false
		if h.closed {
			h.mu.Unlock()
			return
		}
		now := time.Now()
		for len(h.queue) > 0 && !h.queue[0].due.After(now) {
			if d := h.queue.pop(); !h.crashed[d.dst.id] {
				due = append(due, d)
			}
		}
		if len(due) > 0 {
			h.mu.Unlock()
			for i := range due {
				due[i].dst.box.enqueue(due[i].env)
				due[i] = delivery{}
			}
			due = due[:0]
			// Let the goroutines this made runnable run here, on a
			// thread that is awake, before it blocks in the kernel
			// again: left in the run queue of a thread that is about
			// to block they need a second thread woken to steal them
			// (wan_jitter: 12.6 → 9.5 voluntary context switches and
			// ≈ 230 → 180 µs of processor time per commit).
			runtime.Gosched()
			continue // time has passed: look again before sleeping
		}
		wait := time.Duration(-1)
		h.wakeAt = time.Time{}
		if len(h.queue) > 0 {
			h.wakeAt = h.queue[0].due
			wait = h.wakeAt.Sub(now)
		}
		h.asleep = true
		h.mu.Unlock()
		h.sleeper.sleep(wait)
	}
}

// memEndpoint is one node's attachment to a Hub.
type memEndpoint struct {
	hub *Hub
	id  NodeID
	box *mailbox
	// closed makes Send and Broadcast fail; what arrives after Close is
	// refused by the mailbox.
	closed atomic.Bool
}

var _ Endpoint = (*memEndpoint)(nil)

func (e *memEndpoint) ID() NodeID { return e.id }

func (e *memEndpoint) N() int {
	e.hub.mu.Lock()
	defer e.hub.mu.Unlock()
	return len(e.hub.nodes)
}

func (e *memEndpoint) Send(to NodeID, stream string, msg any) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.hub.route(e.id, to, Envelope{From: e.id, Stream: stream, Msg: msg}, false)
	return nil
}

func (e *memEndpoint) Broadcast(stream string, msg any) error {
	if e.closed.Load() {
		return ErrClosed
	}
	env := Envelope{From: e.id, Stream: stream, Msg: msg}
	e.hub.mu.Lock()
	n := len(e.hub.nodes)
	e.hub.mu.Unlock()
	for i := 0; i < n; i++ {
		e.hub.route(e.id, NodeID(i), env, false)
	}
	return nil
}

func (e *memEndpoint) Subscribe(stream string) <-chan Envelope {
	return e.box.subscribe(stream)
}

// Post implements Endpoint. It does not go through the hub: a node the
// hub has crashed or cut off still hears itself.
func (e *memEndpoint) Post(stream string, msg any) {
	e.box.enqueue(Envelope{From: e.id, Stream: stream, Msg: msg})
}

func (e *memEndpoint) Close() error {
	if !e.closed.Swap(true) {
		e.box.close()
	}
	return nil
}
