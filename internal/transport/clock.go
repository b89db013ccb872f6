package transport

import (
	"runtime"
	"sync"
	"time"
)

// wakeup is one thing waiting on the clock for its due time: a delayed
// message on its way to dst, or a dwell, whose done the clock closes.
type wakeup struct {
	due  time.Time
	seq  uint64 // the order of the after calls; breaks ties between equal due times
	dst  *memEndpoint
	env  Envelope
	done chan struct{}
}

func (w *wakeup) before(o *wakeup) bool {
	if w.due.Equal(o.due) {
		return w.seq < o.seq
	}
	return w.due.Before(o.due)
}

// fire closes a dwell's channel, or hands a message to its destination
// unless the hub has crashed it since. An endpoint Restart has replaced,
// or Close has closed, refuses the message.
func (w *wakeup) fire() {
	switch {
	case w.done != nil:
		close(w.done)
	case !w.dst.crashed.Load():
		w.dst.box.enqueue(w.env)
	}
}

// wakeupHeap is a binary min-heap on (due, seq). It is typed, not
// container/heap, so that a push does not box its element.
type wakeupHeap []wakeup

func (q *wakeupHeap) push(w wakeup) {
	*q = append(*q, w)
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

func (q *wakeupHeap) pop() wakeup {
	s := *q
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = wakeup{} // drop the envelope's references
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

// clock is the wait for modeled time: every Hub's delayed messages and
// every Dwell. Wakeups wait in a heap; one goroutine, started by the
// first after, fires everything that has fallen due — in due order,
// equal due times in the order of the after calls, so a delayed link
// without jitter is FIFO — and then sleeps in its sleeper until the next
// due time; after wakes it when a wakeup falls due before what it sleeps
// toward. There is one for the process, not one per hub: a sleeper is a
// thread blocked in the kernel that keeps its processor until the
// runtime's monitor takes it back, and two of them on a 2-core host left
// the goroutines they had made runnable waiting for one (DESIGN.md §6,
// "A delay that costs a delay").
type clock struct {
	mu      sync.Mutex
	queue   wakeupHeap
	seq     uint64
	sleeper *sleeper  // nil until the goroutine is started
	asleep  bool      // the goroutine is in (or about to enter) its sleep
	wakeAt  time.Time // what that sleep ends at; zero: no deadline
}

// modeled is the process's clock. Its goroutine, once started, lives as
// long as the process.
var modeled clock

// after fires w once d has passed.
func (c *clock) after(d time.Duration, w wakeup) {
	c.mu.Lock()
	w.due = time.Now().Add(d)
	c.seq++
	w.seq = c.seq
	c.queue.push(w)
	if c.sleeper == nil {
		c.sleeper = newSleeper()
		go c.run()
	}
	// A wakeup must not be held behind a sleep toward a later one.
	wake := c.asleep && (c.wakeAt.IsZero() || w.due.Before(c.wakeAt))
	if wake {
		c.wakeAt = w.due
	}
	c.mu.Unlock()
	if wake {
		c.sleeper.wake()
	}
}

// run is the clock's goroutine: it fires everything that has fallen due,
// then sleeps until the next due time or until after wakes it.
func (c *clock) run() {
	var due []wakeup
	for {
		c.mu.Lock()
		c.asleep = false
		now := time.Now()
		for len(c.queue) > 0 && !c.queue[0].due.After(now) {
			due = append(due, c.queue.pop())
		}
		if len(due) > 0 {
			c.mu.Unlock()
			for i := range due {
				due[i].fire()
				due[i] = wakeup{}
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
		c.wakeAt = time.Time{}
		if len(c.queue) > 0 {
			c.wakeAt = c.queue[0].due
			wait = c.wakeAt.Sub(now)
		}
		c.asleep = true
		c.mu.Unlock()
		c.sleeper.sleep(wait)
	}
}
