// Package queue provides an unbounded FIFO with channel-based consumption.
//
// Protocol engines must never block on a slow consumer (a blocked engine
// stops acknowledging the network and is indistinguishable from a crashed
// one), so their mailboxes and delivery paths are unbounded queues read
// through an ordinary channel that callers can select on.
//
// The channel is buffered and Push sends to it directly, so an item costs
// the consumer one wake-up and no goroutine stands between the two sides.
// Only a consumer that has fallen a whole buffer behind makes the queue
// spill: pushes then collect in a slice, and a pump goroutine that lives
// exactly as long as the spill feeds them to the channel in order.
package queue

import "sync"

// bufSize is the capacity of the consumption channel: how far a consumer
// may fall behind before pushes spill. A constant, not an option: a burst
// of one ordering stage at the pipeline depths in use (a few dozen
// messages into one mailbox) has to fit, beyond that the size buys
// nothing — a spilling queue is still unbounded and still FIFO, it only
// pays the second wake-up per item again — and each of a site's handful
// of queues holds its buffer for life (5 KiB of transport envelopes).
const bufSize = 128

// Q is an unbounded FIFO of T. Construct with New; the zero value is not
// usable. Push never blocks. Consumers receive from Chan in push order.
type Q[T any] struct {
	out       chan T
	closedCh  chan struct{} // closed by Close: releases a pump blocked on out
	closeOnce sync.Once
	pumping   sync.WaitGroup

	mu sync.Mutex
	// spilling is set from the first push that finds out full until the
	// pump has moved everything spilled into out. While it is set every
	// push appends to items, whatever room out has, so order holds.
	spilling bool
	items    []T
	closed   bool
}

// New creates a queue. The caller must Close it.
func New[T any]() *Q[T] {
	return &Q[T]{
		out:      make(chan T, bufSize),
		closedCh: make(chan struct{}),
	}
}

// Push appends v. It reports false when the queue is closed.
func (q *Q[T]) Push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if !q.spilling {
		select {
		case q.out <- v:
			return true
		default:
		}
		q.spilling = true
		q.pumping.Add(1)
		go q.drainSpill()
	}
	q.items = append(q.items, v)
	return true
}

// Chan returns the consumption channel. It is closed after Close.
func (q *Q[T]) Chan() <-chan T { return q.out }

// Close stops the queue: later pushes are rejected and Chan is closed.
// Items that had spilled are dropped; the up to bufSize items already in
// the channel's buffer stay readable, so a consumer that keeps receiving
// sees them before it sees the channel closed. Close waits for the pump,
// if one is running, and is idempotent.
func (q *Q[T]) Close() {
	q.closeOnce.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.items = nil
		q.mu.Unlock()
		// closed is set under mu, so no Push is sending and none will
		// start a pump; once the running one is gone nobody sends on out.
		close(q.closedCh)
		q.pumping.Wait()
		close(q.out)
	})
}

// drainSpill is the pump: it moves what has spilled into out, a batch at
// a time, and ends the spill — and itself — the first time it finds
// nothing more to move.
func (q *Q[T]) drainSpill() {
	defer q.pumping.Done()
	var zero T
	for {
		q.mu.Lock()
		batch := q.items
		q.items = nil
		if len(batch) == 0 {
			q.spilling = false
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		for i := range batch {
			select {
			case q.out <- batch[i]:
				// Delivered: the batch must not keep it reachable while the
				// rest waits for the consumer.
				batch[i] = zero
			case <-q.closedCh:
				return
			}
		}
	}
}
