package experiments

import (
	"fmt"
	"time"

	"otpdb/internal/netsim"
)

// Figure1Params configures the Figure 1 reproduction (spontaneous total
// order on a 4-site Ethernet vs inter-send interval).
type Figure1Params struct {
	// Sites is the number of sites (paper: 4).
	Sites int
	// PerSite is the number of messages each site multicasts per point.
	PerSite int
	// Intervals is the swept x axis (paper: 0–5 ms).
	Intervals []time.Duration
	// Seed fixes the simulation randomness.
	Seed int64
}

// figure1Params mirrors the paper's setup; quick thins the sweep.
func figure1Params(quick bool) Figure1Params {
	p := Figure1Params{
		Sites:     4,
		PerSite:   400,
		Intervals: netsim.DefaultFigure1Intervals(),
		Seed:      1999,
	}
	if quick {
		p.PerSite = 150
		p.Intervals = []time.Duration{
			100 * time.Microsecond, 500 * time.Microsecond,
			1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		}
	}
	return p
}

// Figure1 reproduces Figure 1: the percentage of spontaneously totally
// ordered messages as a function of the interval between consecutive
// broadcasts at each site.
func Figure1(p Figure1Params) Table {
	points := netsim.Figure1Curve(p.Sites, p.PerSite, p.Intervals, p.Seed)
	t := Table{
		Title:   "Figure 1 — spontaneous total order vs inter-send interval",
		Columns: []string{"interval", "spontaneously ordered", "messages"},
		Notes: []string{
			fmt.Sprintf("%d sites on a shared 10 Mbit/s Ethernet model, %d msgs/site/point",
				p.Sites, p.PerSite),
			"paper anchors: ~82% near saturation, ~99% at 4 ms",
		},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%v", pt.Interval),
			fmt.Sprintf("%.2f%%", pt.Percent),
			fmt.Sprintf("%d", pt.Messages),
		)
	}
	return t
}
