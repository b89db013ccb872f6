package chaos

import (
	"maps"
	"strings"
	"testing"
	"time"

	"otpdb/internal/transport"
)

// quickScenario shrinks a shipped scenario for unit-test runtimes.
func quickScenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := Find(name)
	if !ok {
		t.Fatalf("no shipped scenario %q", name)
	}
	sc.Duration = 2 * time.Second
	if sc.Events > 5 {
		sc.Events = 5
	}
	return sc
}

// TestExpandDeterministic: the schedule is a pure function of
// (scenario, seed) — two expansions are byte-identical, and a different
// seed actually changes the plan.
func TestExpandDeterministic(t *testing.T) {
	for _, sc := range Scenarios(false) {
		a := Expand(sc, 42).String()
		b := Expand(sc, 42).String()
		if a != b {
			t.Fatalf("%s: same seed expanded two different schedules:\n%s\n---\n%s", sc.Name, a, b)
		}
		c := Expand(sc, 43).String()
		if a == c && len(a) > 0 {
			t.Fatalf("%s: seeds 42 and 43 expanded identical schedules", sc.Name)
		}
	}
}

// TestExpandRespectsQuorumBudget: replaying any expanded schedule in
// virtual time never has more than (Sites-1)/2 sites crashed at once,
// so the schedule alone cannot destroy the live majority.
func TestExpandRespectsQuorumBudget(t *testing.T) {
	for _, sc := range Scenarios(false) {
		for seed := int64(0); seed < 20; seed++ {
			sched := Expand(sc, seed)
			down := make(map[int]time.Duration) // site → model heal time
			for _, e := range sched {
				if e.Kind != "crash" && e.Kind != "restart" {
					continue
				}
				for s, until := range down {
					if until <= e.At {
						delete(down, s)
					}
				}
				switch e.Kind {
				case "crash":
					if _, dup := down[e.A]; dup {
						t.Fatalf("%s seed %d: crash of already-crashed site %d", sc.Name, seed, e.A)
					}
					if sc.AutoReplace > 0 {
						// Self-healed crashes must be strictly serial.
						if len(down) != 0 {
							t.Fatalf("%s seed %d: overlapping auto-replace crashes:\n%s", sc.Name, seed, sched)
						}
						down[e.A] = e.At + sc.AutoReplace + 4*time.Second
					} else {
						down[e.A] = sc.Duration * 1000 // until its restart event
					}
					if len(down) > (sc.Sites-1)/2 {
						t.Fatalf("%s seed %d: %d sites down simultaneously with %d sites total:\n%s",
							sc.Name, seed, len(down), sc.Sites, sched)
					}
				case "restart":
					delete(down, e.A)
				}
			}
			if sc.AutoReplace == 0 {
				if len(down) != 0 {
					t.Fatalf("%s seed %d: schedule ends with unrepaired crashes %v", sc.Name, seed, down)
				}
			}
		}
	}
}

// TestExpandPairsRepairs: every partition/stall/spike has its matching
// repair event later in the schedule.
func TestExpandPairsRepairs(t *testing.T) {
	for _, sc := range Scenarios(false) {
		sched := Expand(sc, 7)
		type key struct {
			kind string
			a, b int
		}
		open := make(map[key]int)
		for _, e := range sched {
			switch e.Kind {
			case "partition":
				open[key{"partition", e.A, e.B}]++
			case "heal":
				open[key{"partition", e.A, e.B}]--
			case "stall":
				open[key{"stall", e.A, -1}]++
			case "unstall":
				open[key{"stall", e.A, -1}]--
			case "spike":
				open[key{"spike", e.A, e.B}]++
			case "calm":
				open[key{"spike", e.A, e.B}]--
			}
		}
		for k, n := range open {
			if n != 0 {
				t.Fatalf("%s: unbalanced %v (count %d):\n%s", sc.Name, k, n, sched)
			}
		}
	}
}

// fakeLinks is a linkSetter that keeps the current override per link.
type fakeLinks map[[2]int]transport.LinkProfile

func (f fakeLinks) SetLink(from, to int, p transport.LinkProfile) error {
	f[[2]int{from, to}] = p
	return nil
}

func (f fakeLinks) ClearLink(from, to int) error {
	delete(f, [2]int{from, to})
	return nil
}

// TestCalmRestoresInstalledLink: in every multi-region scenario, each
// calm of the schedule leaves its link exactly as installTopology laid
// it — the standing WAN profile, or no override on an intra-region link.
func TestCalmRestoresInstalledLink(t *testing.T) {
	calms := 0
	for _, quick := range []bool{false, true} {
		for _, sc := range Scenarios(quick) {
			if sc.Regions <= 1 {
				continue
			}
			for _, seed := range []int64{1, 7, 42} {
				links := wanLinks(sc, seed)
				net := fakeLinks{}
				installTopology(net, links)
				installed := maps.Clone(net)
				if len(installed) == 0 {
					t.Fatalf("%s seed %d: no WAN link installed", sc.Name, seed)
				}
				for _, e := range Expand(sc, seed) {
					l := [2]int{e.A, e.B}
					switch e.Kind {
					case "spike":
						_ = net.SetLink(e.A, e.B, transport.LinkProfile{Delay: e.Dur, Jitter: e.Dur / 2})
					case "calm":
						calmLink(net, links, e.A, e.B)
						calms++
						got, gok := net[l]
						want, wok := installed[l]
						if gok != wok || got != want {
							t.Fatalf("%s seed %d: calm %d->%d left %+v (%v), installed %+v (%v)",
								sc.Name, seed, e.A, e.B, got, gok, want, wok)
						}
					}
				}
			}
		}
	}
	if calms == 0 {
		t.Fatal("no calm event in any multi-region scenario")
	}
}

// --- invariant checker units: seeded violations must be caught ---

func TestCheckDigestConvergence(t *testing.T) {
	ok := map[int]map[int]uint64{0: {0: 7, 1: 7, 2: 7}, 1: {0: 9, 1: 9}}
	if v := CheckDigestConvergence(ok); len(v) != 0 {
		t.Fatalf("converged digests flagged: %v", v)
	}
	bad := map[int]map[int]uint64{0: {0: 7, 1: 8, 2: 7}}
	v := CheckDigestConvergence(bad)
	if len(v) != 1 || !strings.Contains(v[0], "shard 0 site 1") {
		t.Fatalf("divergence not caught: %v", v)
	}
}

func TestCheckAckedDurability(t *testing.T) {
	acked := []Committed{{"a", "c0"}, {"b", "c0"}, {"b", "c1"}}
	have := map[string]bool{"c0/a": true, "c0/b": true, "c1/b": true}
	present := func(class, id string) bool { return have[class+"/"+id] }
	if v := CheckAckedDurability(acked, present); len(v) != 0 {
		t.Fatalf("durable acks flagged: %v", v)
	}
	delete(have, "c1/b")
	v := CheckAckedDurability(acked, present)
	if len(v) != 1 || !strings.Contains(v[0], "id b (class c1)") {
		t.Fatalf("lost commit not caught: %v", v)
	}
}

func TestCheckEffectOnce(t *testing.T) {
	if v := CheckEffectOnce(map[string]int64{"c0": 3}, map[string]int64{"c0": 3}); len(v) != 0 {
		t.Fatalf("exact counts flagged: %v", v)
	}
	// Double-applied effect: counter ran ahead of the marker set.
	v := CheckEffectOnce(map[string]int64{"c0": 4}, map[string]int64{"c0": 3})
	if len(v) != 1 || !strings.Contains(v[0], "counter=4") {
		t.Fatalf("double-commit not caught: %v", v)
	}
	// Markers without a counter at all.
	if v := CheckEffectOnce(map[string]int64{}, map[string]int64{"c1": 2}); len(v) != 1 {
		t.Fatalf("orphan markers not caught: %v", v)
	}
}

func TestCheckEpochMonotonic(t *testing.T) {
	ok := map[string][]uint64{
		EpochLabel(0, 0): {1, 1, 2, 2},
		EpochLabel(1, 0): {1, 2, 2},
	}
	if v := CheckEpochMonotonic(ok); len(v) != 0 {
		t.Fatalf("monotone epochs flagged: %v", v)
	}
	regress := map[string][]uint64{EpochLabel(0, 0): {1, 2, 1}}
	if v := CheckEpochMonotonic(regress); len(v) != 1 || !strings.Contains(v[0], "regression") {
		t.Fatalf("regression not caught: %v", v)
	}
	diverge := map[string][]uint64{
		EpochLabel(0, 0): {2},
		EpochLabel(1, 0): {3},
	}
	if v := CheckEpochMonotonic(diverge); len(v) != 1 || !strings.Contains(v[0], "divergence") {
		t.Fatalf("final divergence not caught: %v", v)
	}
	// Different shards may legitimately sit at different epochs.
	perShard := map[string][]uint64{
		EpochLabel(0, 0): {2},
		EpochLabel(0, 1): {1},
	}
	if v := CheckEpochMonotonic(perShard); len(v) != 0 {
		t.Fatalf("cross-shard epoch difference flagged: %v", v)
	}
}

// --- end-to-end scenario smokes ---

func TestRunCrashRejoin(t *testing.T) {
	res, err := Run(quickScenario(t, "crash-rejoin"), 11, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("violations:\n%s\nschedule:\n%s", strings.Join(res.Violations, "\n"), res.ScheduleText)
	}
	if res.Acked == 0 {
		t.Fatal("no commit was ever acknowledged")
	}
}

func TestRunPartitionHeal(t *testing.T) {
	res, err := Run(quickScenario(t, "partition-heal"), 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("violations:\n%s\nschedule:\n%s", strings.Join(res.Violations, "\n"), res.ScheduleText)
	}
}

func TestRunSlowDisk(t *testing.T) {
	res, err := Run(quickScenario(t, "slow-disk"), 13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("violations:\n%s\nschedule:\n%s", strings.Join(res.Violations, "\n"), res.ScheduleText)
	}
}

// TestRunAutoReplace: the self-healing acceptance — a crash scenario
// with WithAutoReplace converges with no operator action (a fallback
// restart inside the runner records a violation, so Pass means the
// cluster healed itself).
func TestRunAutoReplace(t *testing.T) {
	sc, ok := Find("auto-replace")
	if !ok {
		t.Fatal("no auto-replace scenario")
	}
	sc.Duration = 2 * time.Second
	sc.Events = 2
	res, err := Run(sc, 14, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("violations:\n%s\nschedule:\n%s", strings.Join(res.Violations, "\n"), res.ScheduleText)
	}
}

// TestRunDeterminism: the closed-plan scenario replays byte-identical
// fault schedules and converges to identical state digests for the
// same seed.
func TestRunDeterminism(t *testing.T) {
	sc := DeterminismScenario()
	sc.Duration = 2 * time.Second
	sc.FixedTxns = 15
	a, err := Run(sc, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pass || !b.Pass {
		t.Fatalf("violations:\nrun A: %v\nrun B: %v", a.Violations, b.Violations)
	}
	if a.ScheduleText != b.ScheduleText {
		t.Fatalf("same seed produced different fault schedules:\n%s\n---\n%s", a.ScheduleText, b.ScheduleText)
	}
	if len(a.Digests) == 0 {
		t.Fatal("no digests collected")
	}
	for g, d := range a.Digests {
		if b.Digests[g] != d {
			t.Fatalf("same seed diverged: shard %d digest %016x vs %016x", g, d, b.Digests[g])
		}
	}
	if a.Submitted != b.Submitted {
		t.Fatalf("closed plan submitted %d vs %d ids", a.Submitted, b.Submitted)
	}
}
