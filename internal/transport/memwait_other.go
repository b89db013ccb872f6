//go:build !linux

package transport

import "time"

// sleeper is the clock goroutine's wait: sleep for a duration or
// until woken, whichever comes first. Off Linux it is a runtime timer
// beside a wake channel, as precise as the runtime's timers are there.
type sleeper struct {
	woken chan struct{} // capacity 1: a wake before the sleep is kept
}

func newSleeper() *sleeper { return &sleeper{woken: make(chan struct{}, 1)} }

// sleep blocks until d has elapsed or wake is called; d < 0 means no
// deadline. A wake that precedes the sleep makes it return at once.
func (s *sleeper) sleep(d time.Duration) {
	if d < 0 {
		<-s.woken
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.woken:
	case <-t.C:
	}
}

// wake ends the current sleep, or the next one if none is in progress.
func (s *sleeper) wake() {
	select {
	case s.woken <- struct{}{}:
	default:
	}
}
