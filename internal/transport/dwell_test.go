package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDwellSideBySide: dwellers wait side by side, not one after
// another, and none returns before its time. 24 goroutines dwelling
// 300 µs twenty times take about twenty dwells, not 480.
func TestDwellSideBySide(t *testing.T) {
	timed(t)
	const n, rounds, d = 24, 20, 300 * time.Microsecond
	eventually(t, func() error {
		var wg sync.WaitGroup
		var early atomic.Int64
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					s := time.Now()
					Dwell(d, nil)
					if time.Since(s) < d {
						early.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if e := early.Load(); e > 0 {
			t.Fatalf("%d dwells returned before %v", e, d)
		}
		if per := time.Since(start) / rounds; per > 2*time.Millisecond {
			return fmt.Errorf("%d dwellers took %v a round of %v dwells, want ≤ 2ms", n, per, d)
		}
		return nil
	})
}

// TestDwellStop: closing stop ends a dwell at once, and a dwell that
// starts with stop closed does not wait.
func TestDwellStop(t *testing.T) {
	stop := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(stop) })
	start := time.Now()
	Dwell(10*time.Second, stop)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a stopped dwell returned after %v", took)
	}
	start = time.Now()
	Dwell(10*time.Second, stop)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("a dwell after stop waited %v", took)
	}
}

// TestDwellNotHeldBehindLongerOne: a short dwell that starts while a
// long one is waiting ends at its own deadline.
func TestDwellNotHeldBehindLongerOne(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	go Dwell(10*time.Second, stop)
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	Dwell(time.Millisecond, nil)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("a 1ms dwell behind a 10s one took %v", took)
	}
}
