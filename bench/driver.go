package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run measures in lives: each life is a fresh cluster — set up, warmed
// up, timed for lifeWindow, checked, stopped — and a run has one life per
// second of --seconds. Separate clusters, not slices of one window, because
// the program's state only grows (throughput falls by a quarter inside
// 15 s) and because a cluster can fall into a retransmission storm that
// lasts as long as its load does (README, caveats). Many short lives, not
// few long ones, because the shared host slows the box by 20 – 50 % for
// 5 – 60 s at a time: the run reports its best life (bestLife), and the
// more lives there are, the likelier one of them ran undisturbed.
const (
	lifeWindow = time.Second
	lifeWarmup = 250 * time.Millisecond
)

// ackTimeout is how long a client may go without an acknowledgement before
// everything it has in flight counts as failed.
const ackTimeout = 5 * time.Second

// window is one life's timed interval: clients start at once (warm-up),
// samples count from start, and no transaction is submitted at or after
// end.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

type clientResult struct {
	latency           []uint32  // ns, call start → acknowledgement seen, completions inside the window
	first, last       time.Time // when the first and the last of those were seen
	overhead          []int32   // ns, latency minus the call's own submit→commit time
	attempted, failed int
	acked             tally
	errs              []string
}

type queryResult struct {
	service           []uint32 // ns, Query call start → return
	attempted, failed int
	maxLate           time.Duration // how far behind schedule the generator ran at worst
	errs              []string
}

// measurement is everything one life produced.
type measurement struct {
	window
	clients []*clientResult
	queries *queryResult

	// Whole-process costs over the window.
	cpu           time.Duration
	mallocs       uint64
	allocBytes    uint64
	liveHeapBytes uint64 // HeapInuse after a forced GC once the clients have drained
}

// commits is the number of acknowledgements seen inside the window.
func (m *measurement) commits() int {
	n := 0
	for _, c := range m.clients {
		n += len(c.latency)
	}
	return n
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKiB is the process's high-water resident set.
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// progress lets the watchdog tell a stuck client from a slow one.
type progress struct {
	acks atomic.Int64
	done atomic.Bool
}

// watchdog cancels the run when a client that still has work in flight
// has seen no acknowledgement for ackTimeout.
func watchdog(ctx context.Context, cancel context.CancelFunc, ps []*progress) {
	last := make([]int64, len(ps))
	seen := make([]time.Time, len(ps))
	for i := range seen {
		seen[i] = time.Now()
	}
	tick := time.NewTicker(ackTimeout / 10)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			for i, p := range ps {
				if n := p.acks.Load(); n != last[i] || p.done.Load() {
					last[i], seen[i] = n, now
				} else if now.Sub(seen[i]) > ackTimeout {
					cancel()
					return
				}
			}
		}
	}
}

// runClient is one closed-loop update client. It submits until the window
// ends, then drains what it has in flight.
func runClient(ctx context.Context, sys system, spec clientSpec, gen *generator, w window, p *progress) *clientResult {
	res := &clientResult{}
	defer p.done.Store(true)
	end := w.end
	record := func(s *slot, a ack) {
		now := time.Now()
		p.acks.Add(1)
		res.acked[s.o.class][s.o.key]++
		if a.counter <= 0 {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("site %d: put returned counter %d", spec.site, a.counter))
		}
		if w.contains(now) {
			lat := now.Sub(s.start)
			if len(res.latency) == 0 {
				res.first = now
			}
			res.last = now
			res.latency = append(res.latency, uint32(lat))
			res.overhead = append(res.overhead, int32(lat-a.inner))
		}
	}
	fail := func(n int, err error) {
		res.failed += n
		res.errs = append(res.errs, fmt.Sprintf("site %d: %v", spec.site, err))
	}

	if spec.depth == 1 {
		var s slot
		for time.Now().Before(end) {
			gen.next(&s.o)
			res.attempted++
			s.start = time.Now()
			a, err := sys.exec(ctx, spec.site, &s)
			if err != nil {
				fail(1, err)
				return res
			}
			record(&s, a)
		}
		return res
	}

	// slots is a FIFO ring: the head is always the oldest transaction in
	// flight. Commits at one site complete in (nearly) submission order, so
	// waiting on the oldest is waiting on the next to finish.
	slots := make([]slot, spec.depth)
	head, inflight := 0, 0
	submit := func(s *slot) bool {
		gen.next(&s.o)
		res.attempted++
		s.start = time.Now()
		if err := sys.submit(spec.site, s); err != nil {
			fail(1, err)
			return false
		}
		inflight++
		return true
	}
	for i := range slots {
		if !submit(&slots[i]) {
			break
		}
	}
	for inflight > 0 {
		s := &slots[head]
		a, err := sys.wait(ctx, s)
		if err != nil {
			fail(inflight, err)
			return res
		}
		inflight--
		record(s, a)
		if time.Now().Before(end) {
			if !submit(s) {
				// Keep draining what is already in flight.
				end = time.Time{}
			}
		}
		head = (head + 1) % len(slots)
	}
	return res
}

// runQueries is the open-loop scan client: one scan every 1/rate seconds
// at site from now until the window ends, each timed from the start of the
// call. It checks what a snapshot reader may assume: a group's sum never
// goes backwards at a site.
func runQueries(ctx context.Context, sys system, site, rate int, gen *generator, w window) *queryResult {
	res := &queryResult{}
	var last [scanGroups]int64
	period := time.Second / time.Duration(rate)
	for due := time.Now(); due.Before(w.end); due = due.Add(period) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else if -wait > res.maxLate {
			res.maxLate = -wait
		}
		g := gen.group()
		res.attempted++
		start := time.Now()
		sum, err := sys.query(ctx, site, g)
		now := time.Now()
		switch {
		case err != nil:
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("scan at site %d: %v", site, err))
			if ctx.Err() != nil {
				return res
			}
			continue
		case sum < last[g]:
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("scan group %d at site %d went backwards: %d after %d", g, site, sum, last[g]))
		}
		last[g] = sum
		if w.contains(now) {
			res.service = append(res.service, uint32(now.Sub(start)))
		}
	}
	return res
}

// measure drives wl's client mix against sys for one life: warm-up, then a
// timed window of length. stream tells this life's generators apart from
// the other lives'.
func measure(sys system, wl *workload, seed int64, stream int, warmup, length time.Duration) *measurement {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now().Add(warmup)
	m := &measurement{window: window{start: start, end: start.Add(length)}}
	m.clients = make([]*clientResult, len(wl.clients))
	ps := make([]*progress, len(wl.clients))
	var wg sync.WaitGroup
	for i, spec := range wl.clients {
		ps[i] = &progress{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.clients[i] = runClient(ctx, sys, spec, newGenerator(seed, 16*stream+i), m.window, ps[i])
		}()
	}
	if wl.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.queries = runQueries(ctx, sys, 1, wl.queryRate, newGenerator(seed, 16*stream+15), m.window)
		}()
	}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		watchdog(ctx, cancel, ps)
	}()

	var before, after runtime.MemStats
	time.Sleep(time.Until(m.start))
	cpu0 := processCPU()
	runtime.ReadMemStats(&before)
	time.Sleep(time.Until(m.end))
	m.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	wg.Wait()
	cancel()
	<-watched
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.liveHeapBytes = after.HeapInuse
	return m
}
