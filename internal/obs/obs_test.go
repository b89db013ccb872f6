package obs

import (
	"context"
	"testing"
	"time"

	"otpdb/internal/metrics"
	"otpdb/internal/transport"
)

// cluster builds n stations over a memnet hub.
func cluster(t *testing.T, n int, epochs []uint64) (*transport.Hub, []*Station, []*metrics.Registry, []*metrics.TraceRing) {
	t.Helper()
	hub := transport.NewHub(n)
	stations := make([]*Station, n)
	regs := make([]*metrics.Registry, n)
	rings := make([]*metrics.TraceRing, n)
	for i := 0; i < n; i++ {
		regs[i] = metrics.NewRegistry()
		rings[i] = metrics.NewTraceRing(256)
		site := i
		stations[i] = New(hub.Endpoint(transport.NodeID(i)), Config{
			Site:    site,
			Epoch:   func() uint64 { return epochs[site] },
			Trace:   rings[i],
			Metrics: regs[i],
		})
		stations[i].Start()
	}
	t.Cleanup(func() {
		for _, s := range stations {
			s.Stop()
		}
		hub.Close()
	})
	return hub, stations, regs, rings
}

func peers(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(i)
	}
	return out
}

// TestStationTraceStitch: spans recorded at three sites under one
// trace ID come back as one causally ordered set from any site.
func TestStationTraceStitch(t *testing.T) {
	_, stations, _, rings := cluster(t, 3, []uint64{1, 1, 1})
	const trace = "tx0.1.7"
	base := time.Now()
	rings[0].Record(metrics.TraceEvent{Txn: trace, Trace: trace, Span: metrics.SpanXSubmit, Site: 0, At: base})
	rings[1].Record(metrics.TraceEvent{Txn: "m1.9", Trace: trace, Span: metrics.SpanOptDeliver, Site: 1, At: base.Add(time.Millisecond)})
	rings[2].Record(metrics.TraceEvent{Txn: "m1.9", Trace: trace, Span: metrics.SpanCommit, Site: 2, At: base.Add(2 * time.Millisecond)})
	rings[2].Record(metrics.TraceEvent{Txn: "other", Span: metrics.SpanSubmit, Site: 2, At: base})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spans := stations[0].Trace(ctx, trace, peers(3))
	if len(spans) != 3 {
		t.Fatalf("stitched %d spans, want 3: %+v", len(spans), spans)
	}
	sites := map[int]bool{}
	for i, sp := range spans {
		sites[sp.Site] = true
		if i > 0 && sp.At.Before(spans[i-1].At) {
			t.Fatalf("spans not causally ordered: %+v", spans)
		}
	}
	if len(sites) != 3 {
		t.Fatalf("spans cover %d sites, want 3", len(sites))
	}
}

// TestStationMetricsFederation: every member's series arrive
// site-labelled plus aggregated rollups.
func TestStationMetricsFederation(t *testing.T) {
	_, stations, regs, _ := cluster(t, 3, []uint64{1, 1, 1})
	for i, r := range regs {
		r.Scope("site", string(rune('0'+i))).Counter("otp_commits_total").Add(uint64(10 * (i + 1)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fed := stations[1].Metrics(ctx, peers(3))
	var rollup float64
	members := 0
	for _, s := range fed {
		if s.Name != "otp_commits_total" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "agg" {
				rollup = s.Value
			}
			if l.Key == "site" {
				members++
			}
		}
	}
	if members != 3 || rollup != 60 {
		t.Fatalf("federation: members=%d rollup=%v (want 3, 60)", members, rollup)
	}
}

// TestStationEpochFence is the federation regression test: a member
// answering from an older membership epoch is dropped from the
// federated scrape, and a member removed from the peer set is not
// scraped at all — its series disappear within one scrape.
func TestStationEpochFence(t *testing.T) {
	epochs := []uint64{2, 2, 1} // site 2 is stale (evicted config)
	_, stations, regs, _ := cluster(t, 3, epochs)
	for i, r := range regs {
		r.Scope("site", string(rune('0'+i))).Counter("otp_commits_total").Add(100)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fed := stations[0].Metrics(ctx, peers(3))
	for _, s := range fed {
		for _, l := range s.Labels {
			if l.Key == "site" && l.Value == "2" {
				t.Fatalf("stale-epoch member leaked into federation: %+v", s)
			}
		}
	}
	var rollup float64
	for _, s := range fed {
		if s.Name != "otp_commits_total" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "agg" {
				rollup = s.Value
			}
		}
	}
	if rollup != 200 {
		t.Fatalf("rollup includes fenced member: %v (want 200)", rollup)
	}

	// After the membership moves on, the caller scrapes only current
	// members: the removed site's series are gone entirely.
	fed = stations[0].Metrics(ctx, []transport.NodeID{0, 1})
	for _, s := range fed {
		for _, l := range s.Labels {
			if l.Key == "site" && l.Value == "2" {
				t.Fatalf("removed member scraped: %+v", s)
			}
		}
	}
}

// TestStationPartialOnTimeout: a dead peer cannot wedge the scrape —
// the context deadline returns what arrived.
func TestStationPartialOnTimeout(t *testing.T) {
	hub, stations, _, rings := cluster(t, 3, []uint64{1, 1, 1})
	rings[0].Record(metrics.TraceEvent{Txn: "x", Span: metrics.SpanSubmit, Site: 0})
	rings[1].Record(metrics.TraceEvent{Txn: "x", Span: metrics.SpanOptDeliver, Site: 1})
	hub.Crash(2)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	spans := stations[0].Trace(ctx, "x", peers(3))
	sites := map[int]bool{}
	for _, sp := range spans {
		sites[sp.Site] = true
	}
	if !sites[0] || !sites[1] {
		t.Fatalf("live sites missing from partial stitch: %+v", spans)
	}
}

// TestHistExportRoundTrip: Export → Reply codec → Rebuild preserves the
// exact moments and the quantile structure.
func TestHistExportRoundTrip(t *testing.T) {
	h := metrics.NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 50 * time.Millisecond, 3 * time.Second} {
		h.Observe(d)
	}
	ex := h.Export()
	b, err := Reply{Samples: []metrics.WireSample{{Name: "h", Kind: metrics.KindHistogram, Hist: &ex}}}.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeReply(b)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Samples[0].Hist.Rebuild()
	if got.Count() != h.Count() || got.Sum() != h.Sum() || got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatalf("round-trip: got n=%d sum=%v min=%v max=%v", got.Count(), got.Sum(), got.Min(), got.Max())
	}
	if got.Percentile(99) != h.Percentile(99) {
		t.Fatalf("p99 changed: %v vs %v", got.Percentile(99), h.Percentile(99))
	}
}
