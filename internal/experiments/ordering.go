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

// OrderingParams configures the ablation comparing the engine's two
// delivery policies: optimistic (Opt on reception, TO after the stage)
// versus conservative (Opt withheld until TO).
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

// orderingResult is what one policy measured at the origins of its
// messages: latency from Broadcast to the origin's own Opt and TO events.
type orderingResult struct {
	opt, to metrics.Summary // every origin
	// TO latency by origin class: messages of the site that coordinates
	// round 0, node 0, and of everybody else.
	coordTO, followerTO metrics.Summary
	// reorderShare is the share of TO deliveries, over all sites, whose
	// definitive position inverted the site's tentative order.
	reorderShare float64
	fastShare    float64 // site 0's fast stages, percent
}

// startEngines runs the broadcast engine at n sites over one memnet hub
// whose links take delay + U[0, jitter): a consensus engine and an
// abcast.Optimistic configured by opts per site. stop tears the sites down
// in reverse and closes the hub.
func startEngines(n int, delay, jitter time.Duration, seed int64, opts ...abcast.Option) (engines []*abcast.Optimistic, stop func(), err error) {
	hub := transport.NewHub(n,
		transport.WithDelay(delay),
		transport.WithJitter(jitter),
		transport.WithSeed(seed))
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		hub.Close()
	}
	for i := 0; i < n; i++ {
		ep := hub.Endpoint(transport.NodeID(i))
		cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 100 * time.Millisecond})
		cons.Start()
		stops = append(stops, cons.Stop)
		e := abcast.NewOptimistic(ep, cons, opts...)
		if err := e.Start(); err != nil {
			stop()
			return nil, nil, err
		}
		stops = append(stops, func() { _ = e.Stop() })
		engines = append(engines, e)
	}
	return engines, stop, nil
}

// orderingRun measures the engine under one delivery policy.
func orderingRun(p OrderingParams, opts ...abcast.Option) (orderingResult, error) {
	engines, stop, err := startEngines(p.Sites, p.NetDelay, p.Jitter, 11, opts...)
	if err != nil {
		return orderingResult{}, err
	}
	defer stop()

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
		if i == 0 {
			classHist = coordHist
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			events := e.Deliveries()
			for j := 0; j < p.Messages; j++ {
				t0 := time.Now()
				id, err := e.Broadcast(j)
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
		st := e.Stats()
		reorders += st.Reorders
		delivered += st.TODelivered
	}
	if delivered > 0 {
		res.reorderShare = 100 * float64(reorders) / float64(delivered)
	}
	if st := engines[0].Stats(); st.Stages > 0 {
		res.fastShare = 100 * float64(st.FastStages) / float64(st.Stages)
	}
	return res, nil
}

// Ordering is the ablation table: under optimistic delivery the engine
// Opt-delivers in one network hop (enabling the OTP overlap) while its TO
// confirmation costs the consensus stage; under conservative delivery the
// same engine emits both at TO time. The gap between the Opt and TO
// columns is exactly the window OTP hides behind transaction execution.
func Ordering(p OrderingParams) (Table, error) {
	t := Table{
		Title: "E7b — one ordering engine, two delivery policies: optimistic vs conservative",
		Columns: []string{
			"delivery", "Opt mean", "TO mean", "TO p95", "overlap window",
			"TO p50 coord-origin", "TO p50 follower-origin", "reorder share", "fast stages",
		},
		Notes: []string{
			fmt.Sprintf("%d sites, one synchronous client each, %d msgs/site, %v delay, %v jitter",
				p.Sites, p.Messages, p.NetDelay, p.Jitter),
			"overlap window = TO mean - Opt mean: the coordination OTP hides behind execution",
			"coord-origin = messages of site 0 (round-0 coordinator), follower-origin = everybody else's; both measured at the origin",
			"reorder share = Stats().Reorders / TO deliveries over all sites: definitive order inverted the site's tentative order",
		},
	}
	for _, policy := range []struct {
		name string
		opts []abcast.Option
	}{
		{"optimistic (OPT-ABcast)", nil},
		{"conservative", []abcast.Option{abcast.WithConservativeDelivery()}},
	} {
		r, err := orderingRun(p, policy.opts...)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(policy.name, us(r.opt.Mean), us(r.to.Mean), us(r.to.P95), us(r.to.Mean-r.opt.Mean),
			us(r.coordTO.P50), us(r.followerTO.P50), fmt.Sprintf("%.1f%%", r.reorderShare),
			fmt.Sprintf("%.0f%%", r.fastShare))
	}
	return t, nil
}
