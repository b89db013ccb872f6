package transport

import (
	"math/rand"
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
	links     map[link]LinkProfile
	closed    bool
}

// NewHub creates a hub with n endpoints.
func NewHub(n int, opts ...MemOption) *Hub {
	h := &Hub{
		rng:    rand.New(rand.NewSource(1)),
		parted: make([][]bool, n),
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
	h.nodes[n].crashed.Store(true)
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
	h.mu.Unlock()
	_ = old.Close()
	return fresh
}

// Close shuts down every endpoint. Messages still on their way are
// not waited for: the closed endpoints refuse them when they fall due.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	nodes := append([]*memEndpoint(nil), h.nodes...)
	h.mu.Unlock()
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
	if h.closed || (h.nodes[from].crashed.Load() && !ghost) || h.nodes[to].crashed.Load() || h.parted[from][to] {
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
	h.mu.Unlock()
	if delay == 0 {
		dst.box.enqueue(env)
		return
	}
	modeled.after(delay, wakeup{dst: dst, env: env})
}

// memEndpoint is one node's attachment to a Hub.
type memEndpoint struct {
	hub *Hub
	id  NodeID
	box *mailbox
	// closed makes Send and Broadcast fail; what arrives after Close is
	// refused by the mailbox.
	closed atomic.Bool
	// crashed is set by Hub.Crash and read where a message is routed and
	// where a delayed one falls due; Restart replaces the endpoint.
	crashed atomic.Bool
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
