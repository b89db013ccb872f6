package metrics

import "sort"

// BucketCount is one occupied histogram bucket in wire form.
type BucketCount struct {
	Idx int
	N   int64
}

// HistExport is a histogram snapshot in a form that travels between
// sites: the exact moments plus the sparse occupied-bucket list, in the
// shared fixed bucket layout so merging is index-wise addition.
type HistExport struct {
	Count, Sum, Min, Max int64
	Buckets              []BucketCount
}

// Rebuild reconstitutes a live histogram from the export.
func (ex HistExport) Rebuild() *Histogram {
	h := NewHistogram()
	h.Merge(ex)
	return h
}

// WireSample is one metric series as shipped between sites by the
// observability fan-out: scalar kinds carry Value, histogram kinds
// carry Hist. Func collectors are resolved to their reading at export
// time (they travel as their value; kind is preserved so federation
// knows to sum them).
type WireSample struct {
	Name   string
	Labels []Label
	Kind   Kind
	Value  float64
	Hist   *HistExport
}

// ExportSnapshot converts a registry snapshot to wire form.
func ExportSnapshot(r *Registry) []WireSample {
	snap := r.Snapshot()
	out := make([]WireSample, 0, len(snap))
	for _, s := range snap {
		w := WireSample{Name: s.Name, Labels: s.Labels, Kind: s.Kind, Value: s.Value}
		if s.Hist != nil {
			ex := s.Hist.Export()
			w.Hist = &ex
		}
		out = append(out, w)
	}
	return out
}

// Federate merges per-member scrapes into one renderable sample list:
// every member series passes through verbatim (members' scopes already
// carry site labels), and per-family rollups are appended with the
// site label dropped and an agg label naming the fold — counters and
// Func collectors sum, gauges take the max, histograms bucket-merge.
// The result is sorted the way WritePromSamples expects.
func Federate(scrapes ...[]WireSample) []Sample {
	var out []Sample
	type rollup struct {
		name   string
		labels []Label
		kind   Kind
		value  float64
		hist   *Histogram
	}
	rolls := make(map[string]*rollup)
	for _, scrape := range scrapes {
		for _, w := range scrape {
			s := Sample{Name: w.Name, Labels: w.Labels, Kind: w.Kind, Value: w.Value}
			if w.Hist != nil {
				s.Hist = w.Hist.Rebuild()
			}
			out = append(out, s)

			base := dropLabel(w.Labels, "site")
			var agg string
			switch w.Kind {
			case KindCounter, KindFunc:
				agg = "sum"
			case KindGauge:
				agg = "max"
			case KindHistogram, KindSizeHistogram:
				agg = "merge"
			}
			labels := append(append([]Label{}, base...), Label{Key: "agg", Value: agg})
			sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
			key := seriesKey(w.Name, labels)
			r, ok := rolls[key]
			if !ok {
				r = &rollup{name: w.Name, labels: labels, kind: w.Kind}
				if w.Hist != nil {
					r.hist = NewHistogram()
				}
				rolls[key] = r
			}
			switch w.Kind {
			case KindGauge:
				if w.Value > r.value {
					r.value = w.Value
				}
			case KindHistogram, KindSizeHistogram:
				if w.Hist != nil {
					if r.hist == nil {
						r.hist = NewHistogram()
					}
					r.hist.Merge(*w.Hist)
				}
			default:
				r.value += w.Value
			}
		}
	}
	for _, r := range rolls {
		s := Sample{Name: r.name, Labels: r.labels, Kind: r.kind, Value: r.value, Hist: r.hist}
		if s.Kind == KindFunc {
			// A summed pull-gauge is no longer a callback; render as gauge.
			s.Kind = KindGauge
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return seriesKey("", out[i].Labels) < seriesKey("", out[j].Labels)
	})
	return out
}

// dropLabel returns labels without key.
func dropLabel(labels []Label, key string) []Label {
	out := make([]Label, 0, len(labels))
	for _, l := range labels {
		if l.Key != key {
			out = append(out, l)
		}
	}
	return out
}
