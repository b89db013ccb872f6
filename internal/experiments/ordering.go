package experiments

import (
	"fmt"
	"sync"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/metrics"
	"otpdb/internal/transport"
)

// OrderingParams configures the ablation comparing the two definitive-
// order engines: OPT-ABcast (consensus stages with optimistic delivery)
// versus the fixed sequencer (conservative, no optimistic delivery).
type OrderingParams struct {
	// Sites is the cluster size.
	Sites int
	// Messages is the number of broadcasts per site, one after the other.
	Messages int
	// NetDelay is the one-way delay between sites.
	NetDelay time.Duration
	// Jitter randomises delivery, creating tentative-order mismatches.
	Jitter time.Duration
}

// orderingParams uses a 3-site LAN-ish setup.
func orderingParams(quick bool) OrderingParams {
	p := OrderingParams{
		Sites:    3,
		Messages: 50,
		NetDelay: time.Millisecond,
		Jitter:   500 * time.Microsecond,
	}
	if quick {
		p.Messages = 25
	}
	return p
}

// orderingResult is what one engine measured at the origins of its
// messages: latency from Broadcast to the origin's own Opt and TO events.
type orderingResult struct {
	opt, to metrics.Summary // every origin
	// TO latency by origin class: messages of the site that coordinates
	// round 0 (and is the fixed sequencer), node 0, and of everybody else.
	coordTO, followerTO metrics.Summary
	// reorderShare is the share of TO deliveries, over all sites, whose
	// definitive position inverted the site's tentative order.
	reorderShare float64
	fastShare    float64 // site 0's fast stages, percent; optimistic only
}

// orderingRun measures one engine.
func orderingRun(p OrderingParams, optimistic bool) (orderingResult, error) {
	hub := transport.NewHub(p.Sites,
		transport.WithDelay(p.NetDelay),
		transport.WithJitter(p.Jitter),
		transport.WithSeed(11))
	defer hub.Close()

	type engine struct {
		bc    abcast.Broadcaster
		stats func() abcast.Stats
		stop  func()
	}
	engines := make([]engine, p.Sites)
	for i := 0; i < p.Sites; i++ {
		ep := hub.Endpoint(transport.NodeID(i))
		if optimistic {
			cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 100 * time.Millisecond})
			cons.Start()
			bc := abcast.NewOptimistic(ep, cons)
			if err := bc.Start(); err != nil {
				return orderingResult{}, err
			}
			engines[i] = engine{bc: bc, stats: bc.Stats, stop: func() { _ = bc.Stop(); cons.Stop() }}
		} else {
			bc := abcast.NewSequencer(ep)
			if err := bc.Start(); err != nil {
				return orderingResult{}, err
			}
			engines[i] = engine{bc: bc, stats: bc.Stats, stop: func() { _ = bc.Stop() }}
		}
	}
	defer func() {
		for _, e := range engines {
			e.stop()
		}
	}()

	optHist := metrics.NewHistogram()
	toHist := metrics.NewHistogram()
	coordHist := metrics.NewHistogram()
	followerHist := metrics.NewHistogram()
	// One synchronous client per site: broadcast, wait for the message's own
	// TO event, broadcast the next. At most Sites messages are undecided at
	// a time, so a stage opens for each at once and a latency is message
	// delays, not a wait for the batch ahead.
	var wg sync.WaitGroup
	for i := 0; i < p.Sites; i++ {
		e := engines[i]
		classHist := followerHist
		if transport.NodeID(i) == abcast.SequencerNode {
			classHist = coordHist
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			events := e.bc.Deliveries()
			for j := 0; j < p.Messages; j++ {
				t0 := time.Now()
				id, err := e.bc.Broadcast(j)
				if err != nil {
					return
				}
				for ev := range events {
					if ev.ID != id {
						continue
					}
					if ev.Kind == abcast.Opt {
						optHist.Observe(time.Since(t0))
						continue
					}
					lat := time.Since(t0)
					toHist.Observe(lat)
					classHist.Observe(lat)
					break
				}
			}
		}()
	}
	wg.Wait()

	res := orderingResult{
		opt:        optHist.Summarize(),
		to:         toHist.Summarize(),
		coordTO:    coordHist.Summarize(),
		followerTO: followerHist.Summarize(),
	}
	var reorders, delivered uint64
	for _, e := range engines {
		st := e.stats()
		reorders += st.Reorders
		delivered += st.TODelivered
	}
	if delivered > 0 {
		res.reorderShare = 100 * float64(reorders) / float64(delivered)
	}
	if st := engines[0].stats(); st.Stages > 0 {
		res.fastShare = 100 * float64(st.FastStages) / float64(st.Stages)
	}
	return res, nil
}

// Ordering is the ablation table: the optimistic engine Opt-delivers in
// one network hop (enabling the OTP overlap) while its TO confirmation
// costs consensus; the sequencer delivers both after the sequencer round
// trip. The gap between the Opt and TO columns is exactly the window OTP
// hides behind transaction execution.
func Ordering(p OrderingParams) (Table, error) {
	t := Table{
		Title: "E7b — ordering engines: OPT-ABcast vs fixed sequencer",
		Columns: []string{
			"engine", "Opt mean", "TO mean", "TO p95", "overlap window",
			"TO p50 coord-origin", "TO p50 follower-origin", "reorder share", "fast stages",
		},
		Notes: []string{
			fmt.Sprintf("%d sites, one synchronous client each, %d msgs/site, %v delay, %v jitter",
				p.Sites, p.Messages, p.NetDelay, p.Jitter),
			"overlap window = TO mean - Opt mean: the coordination OTP hides behind execution",
			"coord-origin = messages of site 0 (round-0 coordinator, fixed sequencer), follower-origin = everybody else's; both measured at the origin",
			"reorder share = Stats().Reorders / TO deliveries over all sites: definitive order inverted the site's tentative order",
		},
	}
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	for _, engine := range []struct {
		name       string
		optimistic bool
	}{{"OPT-ABcast", true}, {"sequencer (conservative)", false}} {
		r, err := orderingRun(p, engine.optimistic)
		if err != nil {
			return Table{}, err
		}
		fast := "n/a"
		if engine.optimistic {
			fast = fmt.Sprintf("%.0f%%", r.fastShare)
		}
		t.AddRow(engine.name, us(r.opt.Mean), us(r.to.Mean), us(r.to.P95), us(r.to.Mean-r.opt.Mean),
			us(r.coordTO.P50), us(r.followerTO.P50), fmt.Sprintf("%.1f%%", r.reorderShare), fast)
	}
	return t, nil
}
