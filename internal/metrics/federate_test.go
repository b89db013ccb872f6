package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramMerge: merging two exports equals observing the union.
func TestHistogramMerge(t *testing.T) {
	a, b, union := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		union.Observe(d)
	}
	m := NewHistogram()
	m.Merge(a.Export())
	m.Merge(b.Export())
	if m.Count() != union.Count() || m.Sum() != union.Sum() || m.Min() != union.Min() || m.Max() != union.Max() {
		t.Fatalf("merge: n=%d sum=%v", m.Count(), m.Sum())
	}
	for _, p := range []float64{50, 95, 99} {
		if m.Percentile(p) != union.Percentile(p) {
			t.Fatalf("p%v: merged %v union %v", p, m.Percentile(p), union.Percentile(p))
		}
	}
	// Merging an empty export is a no-op (and must not poison min).
	m.Merge(NewHistogram().Export())
	if m.Min() != union.Min() {
		t.Fatalf("empty merge changed min to %v", m.Min())
	}
}

// TestFederate checks the rollup semantics: member series pass through
// verbatim, counters sum, gauges max, histograms bucket-merge, and the
// aggregate rows carry agg labels with the site label dropped.
func TestFederate(t *testing.T) {
	site := func(id string, commits uint64, pending int64, lat time.Duration) []WireSample {
		r := NewRegistry()
		s := r.Scope("site", id)
		s.Counter("otp_commits_total").Add(commits)
		s.Gauge("otp_pending").Set(pending)
		s.Histogram("otp_opt_def_latency_seconds").Observe(lat)
		return ExportSnapshot(r)
	}
	fed := Federate(
		site("0", 10, 3, 5*time.Millisecond),
		site("1", 32, 9, 80*time.Millisecond),
	)
	find := func(name string, kv ...string) *Sample {
		want := pairs(kv)
		for i := range fed {
			if fed[i].Name != name || len(fed[i].Labels) != len(want) {
				continue
			}
			match := true
			for j, l := range fed[i].Labels {
				if want[j] != l {
					match = false
				}
			}
			if match {
				return &fed[i]
			}
		}
		return nil
	}
	if s := find("otp_commits_total", "site", "0"); s == nil || s.Value != 10 {
		t.Fatalf("member series missing or wrong: %+v", s)
	}
	if s := find("otp_commits_total", "agg", "sum"); s == nil || s.Value != 42 {
		t.Fatalf("counter rollup: %+v", s)
	}
	if s := find("otp_pending", "agg", "max"); s == nil || s.Value != 9 {
		t.Fatalf("gauge rollup: %+v", s)
	}
	hs := find("otp_opt_def_latency_seconds", "agg", "merge")
	if hs == nil || hs.Hist == nil || hs.Hist.Count() != 2 {
		t.Fatalf("histogram rollup: %+v", hs)
	}
	if hs.Hist.Max() < 79*time.Millisecond {
		t.Fatalf("merged max = %v", hs.Hist.Max())
	}

	// The federated set renders as valid, deterministic Prometheus text.
	var sb1, sb2 strings.Builder
	if err := WritePromSamples(&sb1, fed); err != nil {
		t.Fatal(err)
	}
	fed2 := Federate(
		site("0", 10, 3, 5*time.Millisecond),
		site("1", 32, 9, 80*time.Millisecond),
	)
	if err := WritePromSamples(&sb2, fed2); err != nil {
		t.Fatal(err)
	}
	if sb1.String() != sb2.String() {
		t.Fatalf("federated exposition not deterministic:\n%s\nvs\n%s", sb1.String(), sb2.String())
	}
	if !strings.Contains(sb1.String(), `otp_commits_total{agg="sum"} 42`) {
		t.Fatalf("rollup line missing:\n%s", sb1.String())
	}
}
