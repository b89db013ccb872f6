package experiments

import (
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"otpdb"
	"otpdb/internal/chaos"
)

// TestIndex pins the Index to itself (unique ids and names, runnable
// entries) and to its documentation: DESIGN.md §4 has one table row per
// entry — same id, target and claim, same order — and none besides.
func TestIndex(t *testing.T) {
	ids, names := map[string]bool{}, map[string]bool{}
	var want []string
	for _, e := range Index {
		if e.ID == "" || ids[e.ID] {
			t.Errorf("entry %q: id %q empty or duplicated", e.Name, e.ID)
		}
		if e.Name == "" || names[e.Name] {
			t.Errorf("entry %s: name %q empty or duplicated", e.ID, e.Name)
		}
		ids[e.ID], names[e.Name] = true, true
		if e.Run == nil {
			t.Errorf("entry %s has no Run", e.Name)
		}
		want = append(want, e.ID+" | `"+e.Name+"` | "+e.Claim)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## §4 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^\| (E\w+ \| [^|]+ \| [^|]+) \|`).FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("DESIGN.md §4 rows:\n%s\nIndex:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestIndexQuickRuns executes every entry at quick scale. chaos has its
// own smoke tests (internal/chaos) and traceoverhead has no quick scale;
// for E9 and E11 this is the only thing that runs them.
func TestIndexQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range Index {
		if e.Name == "chaos" || e.Name == "traceoverhead" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Title == "" || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %+v", tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row %v does not fit columns %v", row, tab.Columns)
				}
			}
			if e.Name == "reconfig" {
				ops := map[string]bool{}
				for _, row := range tab.Rows {
					ops[row[0]] = true
				}
				if !ops["replace"] || !ops["add"] {
					t.Fatalf("E11 needs a replace and an add row, got %v", tab.Rows)
				}
			}
		})
	}
}

// TestDrive runs the one client loop at depth 1 and depth 8 over the
// same N. The procedure holds every execution until `depth`
// transactions have been handed over, so a loop that keeps fewer in
// flight stalls; at each hand-over the calls not yet executed — a lower
// bound on the window — must be below depth.
func TestDrive(t *testing.T) {
	const n = 200
	for _, depth := range []int{1, 8} {
		var executed atomic.Int64
		full := make(chan struct{})
		cluster, err := otpdb.NewCluster(otpdb.WithReplicas(1))
		if err != nil {
			t.Fatal(err)
		}
		cluster.MustRegisterUpdate(otpdb.Update{
			Name:  "gated",
			Class: "c",
			Fn: func(otpdb.UpdateCtx) (otpdb.Value, error) {
				select {
				case <-full:
				case <-time.After(5 * time.Second):
					t.Errorf("depth %d: window never filled", depth)
				}
				executed.Add(1)
				return nil, nil
			},
		})
		if err := cluster.Start(); err != nil {
			t.Fatal(err)
		}
		sess, err := cluster.Session(0)
		if err != nil {
			t.Fatal(err)
		}
		ld, err := drive(sess, n, depth, func(i int) (string, []otpdb.Value) {
			if open := int64(i) - executed.Load(); open >= int64(depth) {
				t.Errorf("depth %d: %d calls open before submit %d", depth, open, i)
			}
			if i == depth-1 {
				close(full)
			}
			return "gated", nil
		})
		cluster.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if ld.Count != n || ld.FastPath+ld.Reordered+ld.Retried != n || executed.Load() != n {
			t.Fatalf("depth %d: %d latencies, %d outcomes, %d executions, want %d each",
				depth, ld.Count, ld.FastPath+ld.Reordered+ld.Retried, executed.Load(), n)
		}
		if ld.PerSec <= 0 {
			t.Fatalf("depth %d: throughput %v", depth, ld.PerSec)
		}
	}
}

// TestChaosReportKeepsZeroAvailability: a scenario that acknowledged
// nothing during its fault phase is the worst case and must survive a
// later, healthier scenario of the same class.
func TestChaosReportKeepsZeroAvailability(t *testing.T) {
	crash := map[string]chaos.RecoveryStat{"crash": {Events: 1, Recovered: 1, MeanMs: 10, MaxMs: 10}}
	rep := chaosReport(1, []chaos.Result{
		{Scenario: "dead", Pass: true, Availability: 0.0, Recovery: crash},
		{Scenario: "fine", Pass: true, Availability: 0.9, Recovery: crash},
	})
	st := rep.ByClass["crash"]
	if st.MinAvailability != 0 {
		t.Fatalf("worst availability = %v, want 0", st.MinAvailability)
	}
	if st.Events != 2 || st.Recovered != 2 || st.MeanMillis != 10 {
		t.Fatalf("aggregate = %+v", st)
	}
}

func TestTraceBudget(t *testing.T) {
	for _, c := range []struct {
		name            string
		overhead, noise float64
		over            bool
	}{
		{"under budget", 1.2, 0, false},
		{"at the budget", 3.0, 0, false},
		{"inside the noise allowance", 4.5, 2.0, false},
		{"over budget on a quiet box", 3.1, 0, true},
		{"over budget beyond the noise", 5.5, 2.0, true},
	} {
		if err := traceBudget(c.overhead, c.noise); (err != nil) != c.over {
			t.Errorf("%s: traceBudget(%v, %v) = %v", c.name, c.overhead, c.noise, err)
		}
	}
}
