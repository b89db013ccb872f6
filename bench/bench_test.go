package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetrics holds BENCHMARK.json and the metric table in
// suite.go to each other: same names in the same order, same unit,
// direction and bound.
func TestDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the benchmark %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", d.name)
		}
		if d.endToEnd {
			e2e = append(e2e, d)
		} else {
			layers = append(layers, d)
		}
	}
	check := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, suite.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, suite.go has %s %s %s bound %v", kind, i, g, d.name, d.unit, better, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2e, true)
	check("per_layer", b.PerLayer, layers, false)
}

// TestSmoke runs every workload untraced and traced (the traced run
// includes the layer cells) at a fraction of the real size and checks the
// shape of what comes out: each declared metric once with its unit, no
// failed operation, the correctness gate ran, the stage table reconciles
// on paper. It asserts nothing about the numbers themselves.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	cells := fullCells.scaled(200)
	p := params{seed: 1, lives: 3, window: 80 * time.Millisecond, warmup: 20 * time.Millisecond,
		cells: &cells, outDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			name, want := w.name+"/end_to_end", b.EndToEnd
			if trace {
				name, want = w.name+"/per_layer", b.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(w, p, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v, %d of %d operations failed, violations: %v", res.Correct, res.Failed, res.Attempted, res.Violations)
				}
				lives := p.lives
				if trace {
					lives = p.lives/3 + 1 // a third of them untraced, one traced
				}
				if res.GateChecked < lives*sites*numClasses*keysPerClass {
					t.Errorf("correctness gate compared %d values, want every key at every site", res.GateChecked)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("%s: reported %+v (present %v), declared unit %q", d.Name, m, ok, d.Unit)
					}
				}
				if trace {
					if res.Stages == nil || res.Stages.Txns == 0 {
						t.Fatalf("no stage table: %+v", res.Stages)
					}
					if _, ok := res.Metrics["otpdb.trace_residual_share"]; !ok {
						t.Error("stage table without otpdb.trace_residual_share")
					}
					if _, err := os.Stat(p.outDir + "/trace-" + w.name + ".json"); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}
