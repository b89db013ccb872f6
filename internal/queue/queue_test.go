package queue

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otpdb/internal/testutil"
)

func (q *Q[T]) isSpilling() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.spilling
}

func TestFIFOOrder(t *testing.T) {
	q := New[int]()
	defer q.Close()
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < 100; i++ {
		got := <-q.Chan()
		if got != i {
			t.Fatalf("item %d = %d, want %d", i, got, i)
		}
	}
}

func TestPushNeverBlocks(t *testing.T) {
	q := New[int]()
	defer q.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100000; i++ {
			q.Push(i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("push blocked with no consumer")
	}
}

func TestCloseUnblocksConsumerAndRejectsPush(t *testing.T) {
	q := New[int]()
	got := make(chan bool, 1)
	go func() {
		_, ok := <-q.Chan()
		got <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if ok := <-got; ok {
		t.Fatal("consumer received item from empty closed queue")
	}
	if q.Push(1) {
		t.Fatal("push accepted after close")
	}
}

func TestCloseIsIdempotentAndConcurrent(t *testing.T) {
	q := New[int]()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Close()
		}()
	}
	wg.Wait()
}

func TestConcurrentProducersAllItemsArrive(t *testing.T) {
	q := New[int]()
	defer q.Close()
	const producers, perProducer = 8, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < producers*perProducer; i++ {
		select {
		case <-q.Chan():
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d items arrived", i, producers*perProducer)
		}
	}
}

// The pump exists only while a spill is being drained: a queue that stays
// within its buffer never starts a goroutine, however often it fills and
// empties, and the first push beyond the buffer does.
func TestNoPumpBelowBuffer(t *testing.T) {
	base := runtime.NumGoroutine()
	q := New[int]()
	defer q.Close()
	next := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < bufSize; i++ {
			q.Push(next + i)
		}
		if q.isSpilling() {
			t.Fatalf("round %d: spilling with %d items queued", round, bufSize)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("round %d: %d goroutines, %d before the queue existed", round, n, base)
		}
		for i := 0; i < bufSize; i++ {
			if got := <-q.Chan(); got != next+i {
				t.Fatalf("got %d, want %d", got, next+i)
			}
		}
		next += bufSize
	}
	for i := 0; i <= bufSize; i++ {
		q.Push(next + i)
	}
	if !q.isSpilling() {
		t.Fatalf("not spilling with %d items queued", bufSize+1)
	}
	for i := 0; i <= bufSize; i++ {
		if got := <-q.Chan(); got != next+i {
			t.Fatalf("got %d, want %d", got, next+i)
		}
	}
	testutil.Eventually(t, 5*time.Second, "the spill to end once drained", func() bool {
		return !q.isSpilling() && runtime.NumGoroutine() <= base
	})
}

// Close while the pump is blocked on a full channel: Close returns, the
// consumer still finds the buffered head of the queue, in order, and
// then the end of the channel; the pump is gone.
func TestCloseDuringSpill(t *testing.T) {
	base := runtime.NumGoroutine()
	q := New[int]()
	for i := 0; i < 10*bufSize; i++ {
		q.Push(i)
	}
	if !q.isSpilling() {
		t.Fatal("not spilling")
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		q.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a spilling queue nobody reads")
	}
	n := 0
	for got := range q.Chan() {
		if got != n {
			t.Fatalf("item %d = %d after Close", n, got)
		}
		n++
	}
	if n > bufSize {
		t.Fatalf("%d items readable after Close, buffer holds %d", n, bufSize)
	}
	if q.Push(0) {
		t.Fatal("push accepted after close")
	}
	testutil.Eventually(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// Randomized model test. Producers push (producer, seq) pairs as fast as
// the consumer hands out tokens; the consumer moves through seeded
// cycles of three phases — slower than the producers (it hands out more
// than a buffer of tokens and reads nothing: the queue spills), faster
// (it reads the backlog down while the producers keep pushing into the
// draining spill), and level (bursts below the buffer: no spill may
// start) — so the queue crosses the spill boundary in both directions
// once per cycle. Every item must arrive once, in its producer's order.
func TestModelAcrossSpillBoundary(t *testing.T) {
	const producers, cycles = 4, 40
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(42))
	q := New[[2]int]()

	tokens := make(chan struct{})
	var pushed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				if _, ok := <-tokens; !ok {
					return
				}
				if !q.Push([2]int{p, seq}) {
					t.Errorf("producer %d: push %d rejected", p, seq)
				}
				pushed.Add(1)
			}
		}(p)
	}

	var released, received int64
	var nextSeq [producers]int
	release := func(n int) {
		for i := 0; i < n; i++ {
			tokens <- struct{}{}
		}
		released += int64(n)
	}
	waitPushed := func() {
		t.Helper()
		testutil.Eventually(t, 10*time.Second, "producers to push what was released", func() bool {
			return pushed.Load() == released
		})
	}
	receive := func(n int64) {
		t.Helper()
		for ; n > 0; n-- {
			select {
			case it := <-q.Chan():
				if it[1] != nextSeq[it[0]] {
					t.Fatalf("producer %d: got seq %d, want %d (lost, duplicated or reordered)", it[0], it[1], nextSeq[it[0]])
				}
				nextSeq[it[0]]++
				received++
			case <-time.After(10 * time.Second):
				t.Fatalf("consumer starved: %d received of %d pushed", received, pushed.Load())
			}
		}
	}

	for c := 0; c < cycles; c++ {
		// Slower: more than a buffer arrives and nothing is read.
		release(bufSize + 1 + rng.Intn(3*bufSize))
		waitPushed()
		if !q.isSpilling() {
			t.Fatalf("cycle %d: %d items unread and no spill", c, released-received)
		}
		// Faster: read the backlog down while more keeps arriving behind it.
		for released-received > 0 {
			receive(1 + rng.Int63n(released-received))
			if rng.Intn(2) == 0 {
				release(rng.Intn(bufSize / 2))
			}
		}
		waitPushed()
		receive(released - received)
		testutil.Eventually(t, 10*time.Second, "the spill to end once drained", func() bool {
			return !q.isSpilling()
		})
		// Level: bursts that fit the buffer go straight to the channel.
		for i := 0; i < 5; i++ {
			release(1 + rng.Intn(bufSize))
			waitPushed()
			if q.isSpilling() {
				t.Fatalf("cycle %d: spill with %d items unread", c, released-received)
			}
			receive(released - received)
		}
	}

	close(tokens)
	wg.Wait()
	select {
	case it := <-q.Chan():
		t.Fatalf("item %v nobody pushed", it)
	default:
	}
	q.Close()
	testutil.Eventually(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}
