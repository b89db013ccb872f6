package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"otpdb"
	"otpdb/internal/events"
	"otpdb/internal/transport"
)

// Options configures a Run.
type Options struct {
	// Out receives progress lines (nil = silent).
	Out io.Writer
	// Events, when non-nil, is the flight recorder the run feeds: the
	// cluster's causal transitions (epoch changes, suspicions,
	// replacements, transfers) plus the harness's own fault injections
	// and repairs. When nil the run creates a private one, so dump-on-
	// violation works either way.
	Events *events.Recorder
	// DumpDir, when non-empty, receives a flight-recorder dump
	// (flight-<scenario>-<seed>.json) whenever the run ends with
	// invariant violations — the post-mortem artifact CI uploads.
	DumpDir string
}

// RecoveryStat aggregates recovery times for one fault class: the time
// from fault injection until the affected site acknowledged its first
// commit after repair began.
type RecoveryStat struct {
	Events    int     `json:"events"`
	Recovered int     `json:"recovered"`
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario     string                  `json:"scenario"`
	Seed         int64                   `json:"seed"`
	Sites        int                     `json:"sites"`
	Shards       int                     `json:"shards"`
	Pass         bool                    `json:"pass"`
	Violations   []string                `json:"violations,omitempty"`
	ScheduleText string                  `json:"-"`
	Events       int                     `json:"events"`
	Submitted    int                     `json:"submitted"`
	Acked        int                     `json:"acked"`
	Resubmits    int                     `json:"resubmits"`
	Availability float64                 `json:"availability"`
	Recovery     map[string]RecoveryStat `json:"recovery,omitempty"`
	// Digests is the converged per-shard state digest — the cross-run
	// comparison point of the determinism check.
	Digests map[int]uint64 `json:"digests,omitempty"`
	// Replacements reports the auto-replacement rounds the cluster won
	// during the run, splitting detection hysteresis from repair cost.
	Replacements []ReplacementMs `json:"replacements,omitempty"`
	// FlightDump is the path of the flight-recorder dump written when
	// the run ended with violations (empty otherwise).
	FlightDump string  `json:"flight_dump,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// msBetween is the span from a to b in milliseconds.
func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// ReplacementMs is one auto-replacement's phase timing: Detect is the
// sustained-suspicion window the winning survivor waited before acting
// (the WithAutoReplace hysteresis), Rebuild is everything after —
// membership commits through every shard group plus the state transfer
// that rebuilt the replacement (zero when the rebuild failed).
type ReplacementMs struct {
	Site      int     `json:"site"`
	DetectMs  float64 `json:"detect_ms"`
	RebuildMs float64 `json:"rebuild_ms"`
}

// anchor tracks one disruptive event for the recovery metric.
type anchor struct {
	class    FaultClass
	site     int
	faultAt  time.Time
	repairAt time.Time // zero until repaired
}

// Run executes one scenario at one seed: build the cluster and
// topology, drive the workload and the expanded fault schedule, repair
// everything, wait for convergence, and audit the invariants. The
// returned Result reports pass/fail plus availability and recovery
// metrics; err is reserved for harness failures (a cluster that will
// not even start), not invariant violations.
func Run(sc Scenario, seed int64, opt Options) (*Result, error) {
	res, c, err := RunKeep(sc, seed, opt)
	if c != nil {
		c.Stop()
	}
	return res, err
}

// RunKeep is Run, but hands the (still running) cluster back for
// post-mortem inspection — reading divergent rows, dumping engines —
// instead of stopping it. The caller owns Stop. The cluster is non-nil
// exactly when err is nil.
func RunKeep(sc Scenario, seed int64, opt Options) (*Result, *otpdb.Cluster, error) {
	start := time.Now()
	logf := func(format string, args ...any) {
		if opt.Out != nil {
			fmt.Fprintf(opt.Out, format+"\n", args...)
		}
	}
	shards := sc.Shards
	if shards < 1 {
		shards = 1
	}
	sched := Expand(sc, seed)
	res := &Result{
		Scenario: sc.Name, Seed: seed, Sites: sc.Sites, Shards: shards,
		ScheduleText: sched.String(), Events: len(sched),
		Recovery: make(map[string]RecoveryStat),
	}
	logf("chaos %s: seed=%d sites=%d shards=%d events=%d", sc.Name, seed, sc.Sites, shards, len(sched))

	flight := opt.Events
	if flight == nil {
		flight = events.NewRecorder(4096)
	}

	w := newWorkload(sc, shards)
	copts := []otpdb.Option{
		otpdb.WithReplicas(sc.Sites),
		otpdb.WithShards(shards),
		otpdb.WithSeed(seed),
		otpdb.WithNetworkDelay(200 * time.Microsecond),
		otpdb.WithNetworkJitter(300 * time.Microsecond),
		otpdb.WithEvents(flight),
	}
	if sc.AutoReplace > 0 {
		copts = append(copts, otpdb.WithAutoReplace(sc.AutoReplace))
	}
	c, err := otpdb.NewCluster(copts...)
	if err != nil {
		return nil, nil, err
	}
	w.register(c)
	if err := c.Start(); err != nil {
		return nil, nil, err
	}
	links := wanLinks(sc, seed)
	installTopology(c.Fault(), links)

	// Warm-up: one commit per class so every shard has traffic before
	// faults begin.
	warmCtx, cancelWarm := context.WithTimeout(context.Background(), 30*time.Second)
	for _, class := range w.classes {
		if err := c.Exec(warmCtx, 0, "apply-"+class, otpdb.String("warm-"+class)); err != nil {
			cancelWarm()
			c.Stop()
			return nil, nil, fmt.Errorf("chaos: warm-up: %w", err)
		}
	}
	cancelWarm()

	// Fault phase: submitters, epoch monitor and the schedule run
	// concurrently.
	rec := newRecorder()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < sc.Sites; s++ {
		wg.Add(1)
		go submitter(c, w, sc, s, seed, rec, stop, &wg)
	}
	mon := startEpochMonitor(c, sc.Sites, shards)
	phaseStart := time.Now()
	anchors := runSchedule(c, sc, links, sched, flight, logf)
	phaseEnd := time.Now()

	// Repair everything the schedule left open, then drain the workload.
	repairViolations := repairAll(c, sc, links, anchors, flight, logf)
	close(stop)
	if !waitGroupWithin(&wg, 90*time.Second) {
		repairViolations = append(repairViolations, "workload did not drain within 90s of repairs")
	}
	mon.stop()

	// Convergence: all live sites agree and the epochs settle.
	if v := waitConverged(c, 90*time.Second, logf); v != "" {
		repairViolations = append(repairViolations, v)
	}

	// Audit.
	violations := repairViolations
	violations = append(violations, auditState(c, sc, shards, w, rec)...)
	violations = append(violations, CheckEpochMonotonic(mon.samples)...)
	res.Digests = make(map[int]uint64)
	for g := 0; g < shards; g++ {
		for s := 0; s < sc.Sites; s++ {
			if d, err := c.ShardDigest(s, g); err == nil {
				res.Digests[g] = d
				break
			}
		}
	}

	res.Violations = violations
	res.Pass = len(violations) == 0
	if !res.Pass {
		// The run failed an invariant: seal the causal log. Violations go
		// in first so the dump is self-describing, then the whole ring is
		// written as the post-mortem artifact.
		for _, v := range violations {
			flight.Record(-1, events.KindViolation, "check", v)
		}
		if opt.DumpDir != "" {
			path := filepath.Join(opt.DumpDir, fmt.Sprintf("flight-%s-%d.json", sc.Name, seed))
			if werr := os.WriteFile(path, flight.DumpJSON(), 0o644); werr == nil {
				res.FlightDump = path
				logf("chaos %s: flight recorder dumped to %s", sc.Name, path)
			} else {
				logf("chaos %s: flight dump failed: %v", sc.Name, werr)
			}
		}
	}
	rec.mu.Lock()
	res.Submitted = len(rec.ids)
	res.Acked = len(rec.acked)
	res.Resubmits = rec.resubmits
	acks := append([]ackPoint(nil), rec.acks...)
	rec.mu.Unlock()
	res.Availability = availability(acks, phaseStart, phaseEnd)
	res.Recovery = recoveryStats(anchors, acks)
	for _, r := range c.Replacements() {
		rm := ReplacementMs{Site: r.Victim, DetectMs: msBetween(r.SuspectedAt, r.DetectedAt)}
		if !r.RebuiltAt.IsZero() {
			rm.RebuildMs = msBetween(r.DetectedAt, r.RebuiltAt)
		}
		res.Replacements = append(res.Replacements, rm)
	}
	res.ElapsedSec = time.Since(start).Seconds()
	logf("chaos %s: pass=%v acked=%d/%d resubmits=%d availability=%.3f elapsed=%.1fs",
		sc.Name, res.Pass, res.Acked, res.Submitted, res.Resubmits, res.Availability, res.ElapsedSec)
	for _, v := range violations {
		logf("chaos %s: VIOLATION: %s", sc.Name, v)
	}
	return res, c, nil
}

// wanLinks is the standing profile of every inter-region directed link
// under the WAN RTT matrix, by (from, to); nil for one region. The
// per-direction asymmetry factors come from their own deterministic rng,
// consumed in fixed (from, to) order — part of the scenario's
// reproducibility contract. A run computes it once: installTopology lays
// it over the network and calmLink restores a spiked link from it.
func wanLinks(sc Scenario, seed int64) map[[2]int]transport.LinkProfile {
	if sc.Regions <= 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed + 1))
	links := make(map[[2]int]transport.LinkProfile)
	for from := 0; from < sc.Sites; from++ {
		for to := 0; to < sc.Sites; to++ {
			if from == to || sc.Region(from) == sc.Region(to) {
				continue
			}
			factor := 0.8 + 0.4*rng.Float64() // asymmetric per direction
			links[[2]int{from, to}] = transport.LinkProfile{
				Delay:  time.Duration(float64(sc.RegionRTT/2) * factor),
				Jitter: sc.RegionJitter,
				Loss:   sc.Loss,
			}
		}
	}
	return links
}

// linkSetter is the part of otpdb.FaultInjector that shapes links.
type linkSetter interface {
	SetLink(from, to int, p transport.LinkProfile) error
	ClearLink(from, to int) error
}

// installTopology lays the standing WAN links over the network.
func installTopology(f linkSetter, links map[[2]int]transport.LinkProfile) {
	for l, p := range links {
		_ = f.SetLink(l[0], l[1], p)
	}
}

// calmLink ends a delay spike: the link gets its standing profile back,
// or loses its override when it has none.
func calmLink(f linkSetter, links map[[2]int]transport.LinkProfile, from, to int) {
	if p, ok := links[[2]int{from, to}]; ok {
		_ = f.SetLink(from, to, p)
	} else {
		_ = f.ClearLink(from, to)
	}
}

// runSchedule applies the expanded schedule in real time and returns
// the recovery anchors of the disruptive events. Restarts run async so
// a slow rejoin cannot skew later event times; their completions are
// joined before returning.
func runSchedule(c *otpdb.Cluster, sc Scenario, links map[[2]int]transport.LinkProfile, sched Schedule, flight *events.Recorder, logf func(string, ...any)) []*anchor {
	f := c.Fault()
	start := time.Now()
	var anchors []*anchor
	openCrash := make(map[int]*anchor)
	openStall := make(map[int]*anchor)
	openPart := make(map[[2]int]*anchor)
	var restarts sync.WaitGroup
	for _, e := range sched {
		if wait := e.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		// Heals and un-stalls are repairs; everything else the schedule
		// injects is a fault. Both sides land in the causal log so a
		// post-mortem can line cluster transitions up against what the
		// harness was doing to it.
		kind := events.KindFault
		if e.Kind == "restart" || e.Kind == "heal" || e.Kind == "unstall" || e.Kind == "calm" {
			kind = events.KindRepair
		}
		flight.Record(e.A, kind, "what", e.Kind, "b", strconv.Itoa(e.B))
		now := time.Now()
		switch e.Kind {
		case "crash":
			if err := c.CrashSite(e.A); err != nil {
				logf("chaos: crash site %d: %v", e.A, err)
				continue
			}
			a := &anchor{class: Crash, site: e.A, faultAt: now}
			if sc.AutoReplace > 0 {
				// Self-healing starts at the crash; recovery time will
				// include detection, replacement and rebuild.
				a.repairAt = now
			}
			openCrash[e.A] = a
			anchors = append(anchors, a)
		case "restart":
			a := openCrash[e.A]
			delete(openCrash, e.A)
			site := e.A
			restarts.Add(1)
			go func() {
				defer restarts.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := c.RestartSite(ctx, site); err != nil {
					logf("chaos: restart site %d: %v", site, err)
					return
				}
				if a != nil {
					a.repairAt = time.Now()
				}
			}()
		case "partition":
			_ = f.Partition(e.A, e.B)
			a := &anchor{class: Partition, site: e.A, faultAt: now}
			openPart[[2]int{e.A, e.B}] = a
			anchors = append(anchors, a)
		case "heal":
			_ = f.Heal(e.A, e.B)
			if a := openPart[[2]int{e.A, e.B}]; a != nil {
				a.repairAt = time.Now()
				delete(openPart, [2]int{e.A, e.B})
			}
		case "stall":
			if err := f.StallCommits(e.A, e.Dur); err == nil {
				a := &anchor{class: SlowDisk, site: e.A, faultAt: now}
				openStall[e.A] = a
				anchors = append(anchors, a)
			}
		case "unstall":
			_ = f.StallCommits(e.A, 0)
			if a := openStall[e.A]; a != nil {
				a.repairAt = time.Now()
				delete(openStall, e.A)
			}
		case "spike":
			_ = f.SetLink(e.A, e.B, transport.LinkProfile{Delay: e.Dur, Jitter: e.Dur / 2})
		case "calm":
			calmLink(f, links, e.A, e.B)
		case "ghost":
			for _, s := range c.CrashedSites() {
				if s == e.A {
					_ = f.GhostHeartbeat(e.A, e.B)
					break
				}
			}
		}
	}
	restarts.Wait()
	return anchors
}

// repairAll closes whatever the schedule left open at phase end: heal
// partitions, clear links and stalls, and bring every crashed site
// back — by waiting for auto-replace when the scenario armed it (its
// acceptance criterion), by RestartSite otherwise. Returns violations.
func repairAll(c *otpdb.Cluster, sc Scenario, links map[[2]int]transport.LinkProfile, anchors []*anchor, flight *events.Recorder, logf func(string, ...any)) []string {
	var out []string
	f := c.Fault()
	flight.Record(-1, events.KindRepair, "what", "heal-all")
	_ = f.HealAll()
	_ = f.ClearLinks()
	installTopology(f, links)
	for i := 0; i < sc.Sites; i++ {
		_ = f.StallCommits(i, 0)
	}
	now := time.Now()
	for _, a := range anchors {
		if a.repairAt.IsZero() {
			a.repairAt = now
		}
	}
	if sc.AutoReplace > 0 {
		deadline := time.Now().Add(20*sc.AutoReplace + 15*time.Second)
		for len(c.CrashedSites()) > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if down := c.CrashedSites(); len(down) > 0 {
			out = append(out, fmt.Sprintf("auto-replace did not heal sites %v without operator action", down))
			for _, s := range down {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				if err := c.RestartSite(ctx, s); err != nil {
					logf("chaos: fallback restart %d: %v", s, err)
				}
				cancel()
			}
		}
	} else {
		for _, s := range c.CrashedSites() {
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err = c.RestartSite(ctx, s)
				cancel()
				if err == nil {
					break
				}
			}
			if err != nil {
				out = append(out, fmt.Sprintf("site %d could not be restarted after the run: %v", s, err))
			}
		}
	}
	return out
}

// waitConverged polls until every live site agrees per shard, returning
// a violation string on deadline.
func waitConverged(c *otpdb.Cluster, d time.Duration, logf func(string, ...any)) string {
	deadline := time.Now().Add(d)
	for {
		ok, err := c.Converged()
		if err == nil && ok {
			return ""
		}
		if time.Now().After(deadline) {
			for s := 0; s < c.Size(); s++ {
				if dump, derr := c.DumpEngine(s); derr == nil {
					logf("chaos: engine site %d: %s", s, dump)
				}
			}
			return fmt.Sprintf("live sites did not converge within %s of repairs", d)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// auditState runs the state invariants against a live reference site.
func auditState(c *otpdb.Cluster, sc Scenario, shards int, w *workload, rec *recorder) []string {
	var out []string
	// Digest convergence across survivors, per shard.
	digests := make(map[int]map[int]uint64)
	for g := 0; g < shards; g++ {
		digests[g] = make(map[int]uint64)
		for s := 0; s < sc.Sites; s++ {
			if d, err := c.ShardDigest(s, g); err == nil {
				digests[g][s] = d
			}
		}
	}
	out = append(out, CheckDigestConvergence(digests)...)

	// One live reference site for row reads (digest equality extends
	// its answers to every survivor).
	ref := 0
	down := make(map[int]bool)
	for _, s := range c.CrashedSites() {
		down[s] = true
	}
	for s := 0; s < sc.Sites; s++ {
		if !down[s] {
			ref = s
			break
		}
	}
	present := func(class, id string) bool {
		_, ok, err := c.Read(ref, otpdb.Class(class), markerKey(id))
		return err == nil && ok
	}
	out = append(out, CheckAckedDurability(rec.ackedCommitted(), present)...)

	// Effect-once: each class's counter vs its distinct committed ids.
	rec.mu.Lock()
	ids := make(map[string][]string, len(rec.ids))
	for id, classes := range rec.ids {
		ids[id] = classes
	}
	rec.mu.Unlock()
	sums := make(map[string]int64)
	markers := make(map[string]int64)
	for _, class := range w.classes {
		v, _, err := c.Read(ref, otpdb.Class(class), "sum")
		if err == nil {
			sums[class] = otpdb.AsInt64(v)
		}
		// Warm-up rows count too: one per class.
		if present(class, "warm-"+class) {
			markers[class]++
		}
	}
	for id, classes := range ids {
		for _, class := range classes {
			if present(class, id) {
				markers[class]++
			}
		}
	}
	out = append(out, CheckEffectOnce(sums, markers)...)
	if err := c.CheckInvariants(); err != nil {
		out = append(out, fmt.Sprintf("cluster invariants: %v", err))
	}
	return out
}

// epochMonitor samples every (site, shard) epoch until stopped.
type epochMonitor struct {
	samples map[string][]uint64
	stopCh  chan struct{}
	done    chan struct{}
}

func startEpochMonitor(c *otpdb.Cluster, sites, shards int) *epochMonitor {
	m := &epochMonitor{
		samples: make(map[string][]uint64),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-tick.C:
			}
			down := make(map[int]bool)
			for _, s := range c.CrashedSites() {
				down[s] = true
			}
			for s := 0; s < sites; s++ {
				if down[s] {
					// A crashed site's frozen tracker is stale by
					// definition; its post-rebuild epoch re-enters the
					// sequence when it is live again.
					continue
				}
				for g := 0; g < shards; g++ {
					if e, err := c.ShardEpoch(s, g); err == nil {
						label := EpochLabel(s, g)
						m.samples[label] = append(m.samples[label], e)
					}
				}
			}
		}
	}()
	return m
}

func (m *epochMonitor) stop() {
	close(m.stopCh)
	<-m.done
}

// availability is the fraction of 100 ms buckets of the fault phase in
// which at least one commit was acknowledged somewhere.
func availability(acks []ackPoint, from, to time.Time) float64 {
	const bucket = 100 * time.Millisecond
	n := int(to.Sub(from) / bucket)
	if n <= 0 {
		return 1
	}
	seen := make([]bool, n)
	for _, a := range acks {
		if a.at.Before(from) || !a.at.Before(to) {
			continue
		}
		idx := int(a.at.Sub(from) / bucket)
		if idx >= n {
			idx = n - 1 // the truncated tail fraction of the phase
		}
		seen[idx] = true
	}
	hit := 0
	for _, s := range seen {
		if s {
			hit++
		}
	}
	return float64(hit) / float64(n)
}

// recoveryStats computes, per fault class, how long the affected site
// took from fault injection to its first acknowledged commit after
// repair began.
func recoveryStats(anchors []*anchor, acks []ackPoint) map[string]RecoveryStat {
	sort.Slice(acks, func(i, j int) bool { return acks[i].at.Before(acks[j].at) })
	out := make(map[string]RecoveryStat)
	for _, a := range anchors {
		st := out[string(a.class)]
		st.Events++
		for _, p := range acks {
			if p.site != a.site || p.at.Before(a.repairAt) {
				continue
			}
			ms := float64(p.at.Sub(a.faultAt)) / float64(time.Millisecond)
			st.Recovered++
			st.MeanMs += ms // sum for now; normalized below
			if ms > st.MaxMs {
				st.MaxMs = ms
			}
			break
		}
		out[string(a.class)] = st
	}
	for k, st := range out {
		if st.Recovered > 0 {
			st.MeanMs /= float64(st.Recovered)
		}
		out[k] = st
	}
	return out
}

func waitGroupWithin(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
