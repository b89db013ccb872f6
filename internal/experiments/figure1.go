package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/transport"
)

// Figure1Params configures E1, Figure 1 measured on the broadcast engine:
// the share of messages every site Opt-delivers in the same relative order,
// against the interval at which each origin broadcasts.
type Figure1Params struct {
	// Origins are the group sizes swept; every site is an origin.
	Origins []int
	// PerOrigin is the number of messages each origin broadcasts per point.
	PerOrigin int
	// Delay and Jitter shape every link: a message between two sites takes
	// Delay + U[0, Jitter); a site's own copy takes nothing.
	Delay, Jitter time.Duration
	// Intervals is the swept x axis, the mean gap between one origin's
	// broadcasts.
	Intervals []time.Duration
	// Seed fixes the link draws and the send instants.
	Seed int64
}

// figure1Params runs wan_jitter's link at intervals from a quarter of a
// delay to 32 delays; quick sends fewer messages per point.
func figure1Params(quick bool) Figure1Params {
	const delay = 500 * time.Microsecond
	p := Figure1Params{
		Origins:   []int{2, 4},
		PerOrigin: 120,
		Delay:     delay,
		Jitter:    200 * time.Microsecond,
		Seed:      1999,
	}
	for _, x := range []float64{0.25, 1, 2, 4, 8, 16, 32} {
		p.Intervals = append(p.Intervals, time.Duration(x*float64(delay)))
	}
	if quick {
		p.PerOrigin = 25
	}
	return p
}

// Figure1 is E1: the paper's Figure 1 on this stack. Every origin
// broadcasts open-loop through abcast.Optimistic over one memnet hub;
// every site's Opt order is compared pairwise (SpontaneousOrder), and the
// engines' reorder counters say how often the definitive order then
// inverted a site's tentative one.
func Figure1(p Figure1Params) (Table, error) {
	t := Table{
		Title: "E1 — Figure 1 on the engine: spontaneous total order vs inter-send interval",
		Columns: []string{
			"origins", "interval", "mean send gap", "gap ÷ δ", "spontaneously ordered", "reorder share",
		},
		Notes: []string{
			fmt.Sprintf("abcast.Optimistic over memnet, δ = %v + U[0, %v) per link, own copy at once; %d msgs/origin/point, each sent at a uniformly drawn instant of its interval",
				p.Delay, p.Jitter, p.PerOrigin),
			"spontaneously ordered = messages whose order against every other message is the same in every site's Opt order",
			"reorder share = Stats().Reorders / TO deliveries over all sites, as in E7b",
			"paper (4 sites on a shared 10 Mbit/s Ethernet): ~82% near saturation, ~99% at 4 ms; an origin here hears itself a delay ahead of everybody (DESIGN.md §1, memnet)",
		},
	}
	for _, origins := range p.Origins {
		for i, interval := range p.Intervals {
			pt, err := figure1Cell(p, origins, interval, p.Seed+int64(i))
			if err != nil {
				return Table{}, err
			}
			t.AddRow(fmt.Sprint(origins), us(interval), us(pt.gap),
				fmt.Sprintf("%.2f", float64(pt.gap)/float64(p.Delay)),
				fmt.Sprintf("%.1f%%", pt.ordered.Percent()),
				fmt.Sprintf("%.1f%%", pt.reorderShare))
		}
	}
	return t, nil
}

// figure1Point is one measured cell of E1.
type figure1Point struct {
	gap          time.Duration // mean gap between one origin's broadcasts
	ordered      SpontaneousOrderStats
	reorderShare float64 // percent of TO deliveries
}

// figure1Cell runs one point: origins sites, each broadcasting
// p.PerOrigin messages paced on absolute deadlines. The k-th message of
// an origin is due at start + k·interval + U[0, interval), drawn per
// origin, so the origins are as unsynchronised as the paper's hosts and
// the distance between two origins' sends is not fixed for the whole run
// by their first draw. A late wake-up is caught up on, never carried.
func figure1Cell(p Figure1Params, origins int, interval time.Duration, seed int64) (figure1Point, error) {
	engines, stop, err := startEngines(origins, p.Delay, p.Jitter, seed)
	if err != nil {
		return figure1Point{}, err
	}
	defer stop()

	total := origins * p.PerOrigin
	logs := make([][]abcast.MsgID, origins)
	var received sync.WaitGroup
	for i, e := range engines {
		received.Add(1)
		go func() {
			defer received.Done()
			for to := 0; to < total; {
				ev, ok := <-e.Deliveries()
				if !ok {
					return
				}
				if ev.Kind == abcast.Opt {
					logs[i] = append(logs[i], ev.ID)
				} else {
					to++
				}
			}
		}()
	}

	gaps := make([]time.Duration, origins)
	errs := make([]error, origins)
	var sent sync.WaitGroup
	start := time.Now()
	for i, e := range engines {
		rng := rand.New(rand.NewSource(seed<<8 | int64(i)))
		sent.Add(1)
		go func() {
			defer sent.Done()
			var first time.Time
			for k := 0; k < p.PerOrigin; k++ {
				due := start.Add(time.Duration(k)*interval + time.Duration(rng.Int63n(int64(interval))))
				transport.Dwell(time.Until(due), nil)
				if _, errs[i] = e.Broadcast(k); errs[i] != nil {
					return
				}
				if k == 0 {
					first = time.Now()
				} else if k == p.PerOrigin-1 {
					gaps[i] = time.Since(first) / time.Duration(k)
				}
			}
		}()
	}
	sent.Wait()
	for _, err := range errs {
		if err != nil {
			return figure1Point{}, err
		}
	}
	done := make(chan struct{})
	go func() { received.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return figure1Point{}, fmt.Errorf("E1: %d origins at %v: not every message TO-delivered everywhere in 30 s", origins, interval)
	}

	pt := figure1Point{ordered: SpontaneousOrder(logs)}
	for _, g := range gaps {
		pt.gap += g / time.Duration(origins)
	}
	var reorders, delivered uint64
	for _, e := range engines {
		st := e.Stats()
		reorders += st.Reorders
		delivered += st.TODelivered
	}
	if delivered > 0 {
		pt.reorderShare = 100 * float64(reorders) / float64(delivered)
	}
	return pt, nil
}

// SpontaneousOrderStats summarises how well Opt orders agree across
// sites, the metric plotted in Figure 1 of the paper.
type SpontaneousOrderStats struct {
	// Messages is the number of messages every site delivered.
	Messages int
	// Ordered is the number of messages whose relative order with respect
	// to every other message is identical at all sites.
	Ordered int
}

// Percent reports the share of spontaneously ordered messages, 0–100.
func (s SpontaneousOrderStats) Percent() float64 {
	if s.Messages == 0 {
		return 100
	}
	return 100 * float64(s.Ordered) / float64(s.Messages)
}

// SpontaneousOrder analyses per-site delivery logs. A message m counts as
// spontaneously totally ordered when, for every other message m', all sites
// agree on whether m arrived before m'. This is the strict pairwise
// definition: position equality alone is not sufficient (sites may agree on
// m's index while disagreeing on what preceded it).
//
// Only messages present in every site's log are considered; trailing
// messages still in flight when the measurement window closed are excluded
// by the caller.
func SpontaneousOrder(logs [][]abcast.MsgID) SpontaneousOrderStats {
	if len(logs) == 0 {
		return SpontaneousOrderStats{}
	}
	// Position of each message at each site.
	positions := make([]map[abcast.MsgID]int, len(logs))
	for s, log := range logs {
		positions[s] = make(map[abcast.MsgID]int, len(log))
		for i, id := range log {
			positions[s][id] = i
		}
	}
	// Messages received everywhere.
	var common []abcast.MsgID
	for id := range positions[0] {
		everywhere := true
		for s := 1; s < len(positions); s++ {
			if _, ok := positions[s][id]; !ok {
				everywhere = false
				break
			}
		}
		if everywhere {
			common = append(common, id)
		}
	}

	stats := SpontaneousOrderStats{Messages: len(common)}
	for i, m := range common {
		ordered := true
	pairs:
		for j, m2 := range common {
			if i == j {
				continue
			}
			before := positions[0][m] < positions[0][m2]
			for s := 1; s < len(positions); s++ {
				if (positions[s][m] < positions[s][m2]) != before {
					ordered = false
					break pairs
				}
			}
		}
		if ordered {
			stats.Ordered++
		}
	}
	return stats
}
