package transport

import (
	"sync"
	"time"
)

// Dwell blocks until d has passed or stop is closed (a nil stop never
// is). It is the modeled slow disk's wait (db.Replica.SetCommitStall):
// as precise as memnet's delayed messages, because one goroutine per
// process waits for the earliest deadline in memnet's futex sleeper, and
// free of processors while it waits, because every dweller parks on a
// channel that goroutine closes. A futex wait of its own would hold its
// processor until the runtime's monitor hands it off, which left 24
// dwelling replicas on 2 cores at a third of their nominal rate; a
// runtime timer rounds a sub-millisecond dwell up to ≈ 1.1 ms on an idle
// host (golang/go#44343).
func Dwell(d time.Duration, stop <-chan struct{}) {
	if d <= 0 {
		return
	}
	select {
	case <-stop:
		return
	default:
	}
	select {
	case <-dwells.after(time.Now().Add(d)):
	case <-stop:
	}
}

// dwellClock is Dwell's one waiting goroutine and the deadlines it
// serves. The goroutine runs while any deadline is pending.
type dwellClock struct {
	mu      sync.Mutex
	sleeper *sleeper
	due     []dwellTimer
	running bool      // the goroutine is started and has not seen due empty
	next    time.Time // the earliest deadline it sleeps toward
}

type dwellTimer struct {
	at   time.Time
	done chan struct{}
}

var dwells = dwellClock{sleeper: newSleeper()}

// after returns a channel that is closed at, or shortly after, at.
func (c *dwellClock) after(at time.Time) <-chan struct{} {
	done := make(chan struct{})
	c.mu.Lock()
	c.due = append(c.due, dwellTimer{at: at, done: done})
	wake := c.running && at.Before(c.next)
	if !c.running {
		c.running = true
		go c.run()
	}
	c.mu.Unlock()
	if wake {
		c.sleeper.wake()
	}
	return done
}

// run closes every channel whose deadline has passed, then sleeps until
// the earliest remaining one or until after brings an earlier one.
func (c *dwellClock) run() {
	for {
		c.mu.Lock()
		now := time.Now()
		pending := c.due[:0]
		c.next = time.Time{}
		for _, t := range c.due {
			if !t.at.After(now) {
				close(t.done)
				continue
			}
			pending = append(pending, t)
			if c.next.IsZero() || t.at.Before(c.next) {
				c.next = t.at
			}
		}
		clear(c.due[len(pending):])
		c.due = pending
		if len(pending) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		wait := c.next.Sub(now)
		c.mu.Unlock()
		c.sleeper.sleep(wait)
	}
}
