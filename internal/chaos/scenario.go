// Package chaos is a deterministic fault-injection harness for otpdb
// clusters: seeded scenarios compose WAN topologies, scripted fault
// schedules, realistic workloads and end-of-run invariant checking.
//
// Everything observable about a scenario's fault plan is a pure function
// of (Scenario, seed): Expand derives the schedule from one seeded RNG,
// so a run replays its exact fault sequence from its seed — a failing
// scenario is a repro, not an anecdote. The workload is built from
// commutative increments and idempotent markers, so the *final state* is
// also seed-stable even though commit interleavings are not.
//
// A scenario passes when, after faults stop and repairs complete, the
// surviving sites agree (per-shard digest convergence), no acknowledged
// commit was lost, effects were applied exactly once (retried
// submissions do not double-commit), and every site's epoch history is
// monotone. See Run.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// FaultClass names a category of injected fault; scenarios enable a
// subset and the report aggregates recovery metrics per class.
type FaultClass string

// The fault taxonomy.
const (
	// Crash downs a site at the transport level. Repaired by a scheduled
	// restart (statex rejoin) or — when the scenario arms auto-replace —
	// by the cluster itself.
	Crash FaultClass = "crash"
	// Partition cuts both directions of one site pair; a later heal
	// restores it. The in-process network does not relay, so partitioned
	// survivors rely on coordinator rotation for liveness.
	Partition FaultClass = "partition"
	// SlowDisk stalls a site's commit path (a blocked WAL fsync): every
	// commit at the site dwells for the stall length until cleared.
	SlowDisk FaultClass = "slow-disk"
	// DelaySpike temporarily degrades one directed link far beyond its
	// base profile, then restores the base.
	DelaySpike FaultClass = "delay-spike"
	// Ghost replays a stale-incarnation failure-detector heartbeat from
	// a crashed site — the backlog a reconnecting transport drains.
	// Detectors must drop it or a dead site would look alive forever.
	Ghost FaultClass = "ghost"
)

// Scenario is one reproducible chaos experiment. The zero value is not
// runnable; use the shipped Scenarios or fill in at least Sites,
// Duration, Events and Faults.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Sites is the cluster size; Shards the number of shard groups
	// (0 means 1).
	Sites  int
	Shards int

	// Regions > 1 lays the sites out in contiguous regional blocks and
	// installs an RTT matrix: links inside a region keep the LAN base
	// profile, links between regions get RegionRTT/2 one-way delay with
	// RegionJitter and Loss, each direction perturbed asymmetrically.
	Regions      int
	RegionRTT    time.Duration
	RegionJitter time.Duration
	Loss         float64

	// Duration is the fault-phase length; Events the number of fault
	// injections scheduled across it.
	Duration time.Duration
	Events   int
	// Faults enables fault classes; an empty set schedules nothing
	// (a pure workload soak).
	Faults []FaultClass

	// AutoReplace, when positive, arms otpdb.WithAutoReplace with this
	// suspicion window; crash events are then left for the cluster to
	// heal itself instead of scheduling restarts.
	AutoReplace time.Duration

	// FixedTxns, when positive, switches the workload to a closed plan:
	// each site submits exactly this many transactions, retrying until
	// acknowledged. Together with the commutative workload this makes
	// the final state digest identical across runs of the same seed —
	// the determinism mode. Zero runs an open workload for Duration.
	FixedTxns int

	// CrossShard is the fraction of submissions that use a two-class
	// cross-shard procedure (only meaningful with Shards > 1).
	CrossShard float64

	// Quick marks the scenario as cheap enough for smoke runs (-quick,
	// CI); expensive scenarios are full-mode only.
	Quick bool
}

// Region reports the region of a site under the scenario's contiguous
// block layout (0 when the scenario is single-region).
func (sc Scenario) Region(site int) int {
	if sc.Regions <= 1 {
		return 0
	}
	return site * sc.Regions / sc.Sites
}

// Event is one step of a fault schedule: an injection or its paired
// repair. A and B are sites (B is -1 when unused); Dur carries the
// stall length or spike delay.
type Event struct {
	At    time.Duration
	Kind  string // crash restart partition heal stall unstall spike calm ghost
	A, B  int
	Dur   time.Duration
	Class FaultClass
}

// String renders the event in the fixed replayable format.
func (e Event) String() string {
	switch e.Kind {
	case "crash", "restart":
		return fmt.Sprintf("%8s %-9s site=%d", fmtAt(e.At), e.Kind, e.A)
	case "partition", "heal":
		return fmt.Sprintf("%8s %-9s sites=%d,%d", fmtAt(e.At), e.Kind, e.A, e.B)
	case "stall":
		return fmt.Sprintf("%8s %-9s site=%d stall=%s", fmtAt(e.At), e.Kind, e.A, e.Dur)
	case "unstall":
		return fmt.Sprintf("%8s %-9s site=%d", fmtAt(e.At), e.Kind, e.A)
	case "spike":
		return fmt.Sprintf("%8s %-9s link=%d->%d delay=%s", fmtAt(e.At), e.Kind, e.A, e.B, e.Dur)
	case "calm":
		return fmt.Sprintf("%8s %-9s link=%d->%d", fmtAt(e.At), e.Kind, e.A, e.B)
	case "ghost":
		return fmt.Sprintf("%8s %-9s from=%d to=%d", fmtAt(e.At), e.Kind, e.A, e.B)
	}
	return fmt.Sprintf("%8s %s", fmtAt(e.At), e.Kind)
}

func fmtAt(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// Schedule is a fault plan sorted by offset into the fault phase.
type Schedule []Event

// String renders the whole schedule, one event per line — the
// byte-identical replay artifact: two expansions of the same
// (scenario, seed) produce equal strings.
func (s Schedule) String() string {
	var b strings.Builder
	for _, e := range s {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Expand derives the scenario's fault schedule from the seed — a pure
// function: no wall clock, no global randomness. Crash events respect
// the quorum budget (at most (Sites-1)/2 sites down at any scheduled
// moment), so the schedule can never take the group below a live
// majority by itself.
func Expand(sc Scenario, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var out Schedule
	if sc.Events <= 0 || len(sc.Faults) == 0 {
		return out
	}
	maxDown := (sc.Sites - 1) / 2
	// Virtual-time occupancy of each disturbance, so victims are chosen
	// against what the schedule itself has pending.
	crashedUntil := make([]time.Duration, sc.Sites)
	stalledUntil := make([]time.Duration, sc.Sites)
	type pair struct{ a, b int }
	partedUntil := make(map[pair]time.Duration)
	spikedUntil := make(map[pair]time.Duration)

	jitter := func(min, max time.Duration) time.Duration {
		return min + time.Duration(rng.Int63n(int64(max-min)))
	}
	for k := 0; k < sc.Events; k++ {
		at := time.Duration(float64(sc.Duration) * (float64(k) + rng.Float64()) / float64(sc.Events))
		class := sc.Faults[rng.Intn(len(sc.Faults))]
		switch class {
		case Crash:
			down := 0
			for _, until := range crashedUntil {
				if until > at {
					down++
				}
			}
			budget := maxDown
			if sc.AutoReplace > 0 {
				// Self-healed crashes are strictly serial in the plan:
				// the model cannot know how long a real replacement
				// takes, and overlapping crashes that both outrun the
				// model could cost the quorum auto-replace itself needs
				// to commit the configuration change.
				budget = 1
			}
			victim := pickSite(rng, sc.Sites, func(i int) bool { return crashedUntil[i] <= at })
			if victim < 0 || down >= budget {
				continue
			}
			out = append(out, Event{At: at, Kind: "crash", A: victim, B: -1, Class: Crash})
			if sc.AutoReplace > 0 {
				// The cluster heals itself; budget the outage as the
				// window plus generous detection and rebuild slack.
				crashedUntil[victim] = at + sc.AutoReplace + 4*time.Second
			} else {
				up := at + jitter(500*time.Millisecond, 1500*time.Millisecond)
				crashedUntil[victim] = up
				out = append(out, Event{At: up, Kind: "restart", A: victim, B: -1, Class: Crash})
			}
		case Partition:
			a := pickSite(rng, sc.Sites, func(i int) bool { return crashedUntil[i] <= at })
			b := pickSite(rng, sc.Sites, func(i int) bool { return crashedUntil[i] <= at && i != a })
			if a < 0 || b < 0 {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if partedUntil[pair{a, b}] > at {
				continue
			}
			heal := at + jitter(300*time.Millisecond, 1500*time.Millisecond)
			partedUntil[pair{a, b}] = heal
			out = append(out, Event{At: at, Kind: "partition", A: a, B: b, Class: Partition})
			out = append(out, Event{At: heal, Kind: "heal", A: a, B: b, Class: Partition})
		case SlowDisk:
			victim := pickSite(rng, sc.Sites, func(i int) bool {
				return crashedUntil[i] <= at && stalledUntil[i] <= at
			})
			if victim < 0 {
				continue
			}
			stall := jitter(20*time.Millisecond, 120*time.Millisecond)
			clear := at + jitter(500*time.Millisecond, 2*time.Second)
			stalledUntil[victim] = clear
			out = append(out, Event{At: at, Kind: "stall", A: victim, B: -1, Dur: stall, Class: SlowDisk})
			out = append(out, Event{At: clear, Kind: "unstall", A: victim, B: -1, Class: SlowDisk})
		case DelaySpike:
			from := rng.Intn(sc.Sites)
			to := rng.Intn(sc.Sites)
			if from == to || spikedUntil[pair{from, to}] > at {
				continue
			}
			delay := jitter(100*time.Millisecond, 400*time.Millisecond)
			calm := at + jitter(500*time.Millisecond, 1500*time.Millisecond)
			spikedUntil[pair{from, to}] = calm
			out = append(out, Event{At: at, Kind: "spike", A: from, B: to, Dur: delay, Class: DelaySpike})
			out = append(out, Event{At: calm, Kind: "calm", A: from, B: to, Class: DelaySpike})
		case Ghost:
			// Source preferably a site the schedule has down right now;
			// the runner skips the injection if it is live after all.
			from := pickSite(rng, sc.Sites, func(i int) bool { return crashedUntil[i] > at })
			if from < 0 {
				from = rng.Intn(sc.Sites)
			}
			to := pickSite(rng, sc.Sites, func(i int) bool { return i != from && crashedUntil[i] <= at })
			if to < 0 {
				continue
			}
			out = append(out, Event{At: at, Kind: "ghost", A: from, B: to, Class: Ghost})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// pickSite returns a random site satisfying ok, or -1. One rng draw per
// call (a shifted scan from a random start), so schedule expansion
// consumes randomness in a fixed pattern.
func pickSite(rng *rand.Rand, n int, ok func(int) bool) int {
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		s := (start + i) % n
		if ok(s) {
			return s
		}
	}
	return -1
}
