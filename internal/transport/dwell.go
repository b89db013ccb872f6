package transport

import "time"

// Dwell blocks until d has passed or stop is closed (a nil stop never
// is). It is the wait of every modeled duration above the transport: the
// slow disk (db.Replica.SetCommitStall), a procedure's Update.Cost and
// E1's send schedule. It waits on the clock memnet delays its messages
// on, so it is as precise as a memnet delay — a runtime timer rounds a
// sub-millisecond wait up to ≈ 1.1 ms on an idle host (golang/go#44343)
// — and a dweller parks on a channel the clock's goroutine closes,
// holding no processor: a futex wait per dweller held one, and 24
// dwelling replicas on 2 cores ran at a third of their nominal rate.
func Dwell(d time.Duration, stop <-chan struct{}) {
	if d <= 0 {
		return
	}
	select {
	case <-stop:
		return
	default:
	}
	done := make(chan struct{})
	modeled.after(d, wakeup{done: done})
	select {
	case <-done:
	case <-stop:
	}
}
