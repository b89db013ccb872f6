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
	// Messages is the number of broadcasts per site.
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

// orderingRun measures, for one engine, the mean Opt latency (broadcast
// to tentative delivery at the origin) and TO latency (broadcast to
// definitive delivery at the origin).
func orderingRun(p OrderingParams, optimistic bool) (optLat, toLat metrics.Summary, fastShare float64, err error) {
	hub := transport.NewHub(p.Sites,
		transport.WithDelay(p.NetDelay),
		transport.WithJitter(p.Jitter),
		transport.WithSeed(11))
	defer hub.Close()

	type engine struct {
		bc   abcast.Broadcaster
		stop func()
	}
	engines := make([]engine, p.Sites)
	for i := 0; i < p.Sites; i++ {
		ep := hub.Endpoint(transport.NodeID(i))
		if optimistic {
			cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 100 * time.Millisecond})
			cons.Start()
			bc := abcast.NewOptimistic(ep, cons)
			if err := bc.Start(); err != nil {
				return metrics.Summary{}, metrics.Summary{}, 0, err
			}
			engines[i] = engine{bc: bc, stop: func() { _ = bc.Stop(); cons.Stop() }}
		} else {
			bc := abcast.NewSequencer(ep)
			if err := bc.Start(); err != nil {
				return metrics.Summary{}, metrics.Summary{}, 0, err
			}
			engines[i] = engine{bc: bc, stop: func() { _ = bc.Stop() }}
		}
	}
	defer func() {
		for _, e := range engines {
			e.stop()
		}
	}()

	optHist := metrics.NewHistogram()
	toHist := metrics.NewHistogram()

	// Track per-origin send times and consume origin-site deliveries.
	var mu sync.Mutex
	sendTimes := make(map[abcast.MsgID]time.Time)

	var wg sync.WaitGroup
	for i := 0; i < p.Sites; i++ {
		e := engines[i]
		origin := transport.NodeID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			seenTO := 0
			for ev := range e.bc.Deliveries() {
				if ev.ID.Origin != origin {
					continue
				}
				mu.Lock()
				t0, ok := sendTimes[ev.ID]
				mu.Unlock()
				if !ok {
					continue
				}
				switch ev.Kind {
				case abcast.Opt:
					optHist.Observe(time.Since(t0))
				case abcast.TO:
					toHist.Observe(time.Since(t0))
					seenTO++
					if seenTO == p.Messages {
						return
					}
				}
			}
		}()
	}
	for i := 0; i < p.Sites; i++ {
		e := engines[i]
		go func() {
			for j := 0; j < p.Messages; j++ {
				mu.Lock()
				id, err := e.bc.Broadcast(j)
				if err == nil {
					sendTimes[id] = time.Now()
				}
				mu.Unlock()
				time.Sleep(p.NetDelay / 2)
			}
		}()
	}
	wg.Wait()

	if optimistic {
		if o, ok := engines[0].bc.(*abcast.Optimistic); ok {
			st := o.Stats()
			if st.Stages > 0 {
				fastShare = 100 * float64(st.FastStages) / float64(st.Stages)
			}
		}
	}
	return optHist.Summarize(), toHist.Summarize(), fastShare, nil
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
			"engine", "Opt mean", "TO mean", "TO p95", "overlap window", "fast stages",
		},
		Notes: []string{
			fmt.Sprintf("%d sites, %d msgs/site, %v delay, %v jitter",
				p.Sites, p.Messages, p.NetDelay, p.Jitter),
			"overlap window = TO mean - Opt mean: the coordination OTP hides behind execution",
		},
	}
	optOpt, optTO, fastShare, err := orderingRun(p, true)
	if err != nil {
		return Table{}, err
	}
	seqOpt, seqTO, _, err := orderingRun(p, false)
	if err != nil {
		return Table{}, err
	}
	t.AddRow("OPT-ABcast",
		optOpt.Mean.Round(time.Microsecond).String(),
		optTO.Mean.Round(time.Microsecond).String(),
		optTO.P95.Round(time.Microsecond).String(),
		(optTO.Mean - optOpt.Mean).Round(time.Microsecond).String(),
		fmt.Sprintf("%.0f%%", fastShare))
	t.AddRow("sequencer (conservative)",
		seqOpt.Mean.Round(time.Microsecond).String(),
		seqTO.Mean.Round(time.Microsecond).String(),
		seqTO.P95.Round(time.Microsecond).String(),
		(seqTO.Mean - seqOpt.Mean).Round(time.Microsecond).String(),
		"n/a")
	return t, nil
}
