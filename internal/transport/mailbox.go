package transport

import (
	"sync"
	"sync/atomic"

	"otpdb/internal/queue"
)

// mailbox demultiplexes received envelopes into per-stream unbounded
// queues. Messages arriving before the first Subscribe for their stream
// are buffered so protocol start-up order never loses traffic.
//
// A node subscribes to a handful of streams, once each, and then receives
// millions of messages on them: the subscriptions are published as a
// snapshot that enqueue reads without a lock and subscribe replaces, never
// modifies. The lock orders subscribe, close and the buffering of early
// messages only.
type mailbox struct {
	subs atomic.Pointer[[]subscription]

	mu     sync.Mutex
	early  map[string][]Envelope
	closed bool
}

type subscription struct {
	stream string
	q      *queue.Q[Envelope]
}

func newMailbox() *mailbox {
	m := &mailbox{early: make(map[string][]Envelope)}
	m.subs.Store(new([]subscription))
	return m
}

// lookup finds the stream's queue in the published snapshot.
func (m *mailbox) lookup(stream string) *queue.Q[Envelope] {
	for _, s := range *m.subs.Load() {
		if s.stream == stream {
			return s.q
		}
	}
	return nil
}

func (m *mailbox) subscribe(stream string) <-chan Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q := m.lookup(stream); q != nil {
		return q.Chan()
	}
	q := queue.New[Envelope]()
	if m.closed {
		q.Close()
		return q.Chan()
	}
	// The early messages go in before the queue is published: whoever
	// finds it there pushes behind them.
	for _, env := range m.early[stream] {
		q.Push(env)
	}
	delete(m.early, stream)
	old := *m.subs.Load()
	subs := append(old[:len(old):len(old)], subscription{stream, q})
	m.subs.Store(&subs)
	return q.Chan()
}

func (m *mailbox) enqueue(env Envelope) {
	if q := m.lookup(env.Stream); q != nil {
		q.Push(env) // refused once close has closed the queue
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	// Subscribed between the look above and the lock?
	if q := m.lookup(env.Stream); q != nil {
		q.Push(env)
		return
	}
	m.early[env.Stream] = append(m.early[env.Stream], env)
}

func (m *mailbox) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.early = nil
	m.mu.Unlock()
	for _, s := range *m.subs.Load() {
		s.q.Close()
	}
}
