package otpdb

import (
	"context"
	"errors"
	"strconv"
	"time"

	"otpdb/internal/events"
	"otpdb/internal/fd"
	"otpdb/internal/member"
	"otpdb/internal/metrics"
	"otpdb/internal/site"
	"otpdb/internal/transport"
)

// autoReplaceTimeout bounds one replacement round end to end: the
// membership proposals through every shard group plus the state
// transfer that rebuilds the replacement.
const autoReplaceTimeout = 30 * time.Second

// newDetector creates the failure detector of one site, on the first
// group's endpoint: site i of every group shares a failure domain, so
// one verdict covers all shards. It doubles as the consensus suspector —
// rotation and replacement then act on the same evidence. The default
// clock-derived incarnation makes a rebuilt site supersede its dead
// predecessor's retransmitted heartbeats.
func (c *Cluster) newDetector(ep transport.Endpoint, scope *metrics.Scope) *fd.Detector {
	interval := c.cfg.suspectWin / 8
	if interval > 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	return fd.New(ep, fd.Config{Interval: interval, Metrics: scope, Events: c.cfg.events})
}

// armAutoReplace starts site self's detector and replacer beside its
// started stack and returns the function that stops all three.
func (c *Cluster) armAutoReplace(self int, det *fd.Detector, s *site.Site) func() {
	// Subscribe, then read: a change committing in between reaches the
	// detector twice, never not at all.
	s.Tracker.OnChange(func(next member.Config) { det.SetMembers(next.IDs()) })
	det.Start()
	det.SetMembers(s.Tracker.Config().IDs())
	stopReplace := make(chan struct{})
	go c.autoReplaceLoop(self, det, stopReplace)
	return func() {
		// The replacer is signalled, not joined: the winner of a
		// replacement holds c.mu while stopping the victim's stack, and
		// the victim's own replacer may itself be blocked on c.mu.
		// Joining the detector is safe — its goroutine never takes
		// cluster locks.
		close(stopReplace)
		det.Stop()
		s.Stop()
	}
}

// autoReplaceLoop is the per-site half of WithAutoReplace: it watches the
// site's failure detector and, when a peer has been continuously
// suspected for the configured window, runs one replacement round. Every
// live site runs this loop independently — there is no elected repairer
// to be the next single point of failure — and the membership protocol's
// epoch-succession check arbitrates the resulting race (see
// tryAutoReplace).
//
// The loop exits on stop without being joined; Cluster.Stop and site
// teardown only signal it, so a round blocked inside a proposal drains
// on its own timeout.
func (c *Cluster) autoReplaceLoop(self int, det *fd.Detector, stop <-chan struct{}) {
	window := c.cfg.suspectWin
	poll := window / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	// Suspicion must be *sustained*: a node that flaps (suspected,
	// refreshed, suspected again) restarts its window every time it
	// drops out of the suspected set. since records when the current
	// unbroken stretch of suspicion began.
	since := make(map[transport.NodeID]time.Time)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		cur := make(map[transport.NodeID]bool)
		for _, n := range det.SuspectedSet() {
			cur[n] = true
		}
		for n := range since {
			if !cur[n] {
				delete(since, n)
			}
		}
		for n := range cur {
			start, ok := since[n]
			if !ok {
				since[n] = now
				continue
			}
			if now.Sub(start) < window {
				continue
			}
			c.tryAutoReplace(self, int(n), start)
			// Back off a full further window whether we won or lost:
			// a winner's rebuild clears the suspicion via the epoch
			// change; a loser must not re-propose while the winner's
			// round is still in flight. If the round failed outright
			// (no donors yet), the victim stays suspected and the
			// next window retries — the loop is the retry.
			since[n] = now
		}
	}
}

// tryAutoReplace runs one replacement round for victim as seen from
// site self. Exactly-once across racing survivors is the membership
// protocol's epoch-succession check doing its job: every proposer
// derives WithReplace from the configuration it captured at window
// expiry, so for a given epoch exactly one proposal commits and every
// other proposer observes member.ErrEpochConflict and backs off.
//
// Group 0 is the gate: a proposer only continues to the remaining shard
// groups after winning group 0, so concurrent rounds serialize there. A
// conflict in a later group can then only be an unrelated membership
// change interleaving; the winner retries that group once against the
// live configuration (the victim still needs replacing — nobody else
// could be replacing it without having won group 0 first).
//
// Only transport-level crashes are repaired: a partitioned-but-alive
// site is suspected but keeps its seat, because replacing it would wipe
// a healthy replica to fix a network problem. This is also what keeps
// the detector's inevitable false suspicions (◇S is unreliable by
// nature) from ever destroying state.
// suspectedAt is when the winner's unbroken stretch of suspicion began;
// the winner records the round's full timeline (see Replacements), which
// separates the detection hysteresis from the repair cost.
func (c *Cluster) tryAutoReplace(self, victim int, suspectedAt time.Time) {
	detectedAt := time.Now()
	c.mu.RLock()
	ok := c.started && !c.stopped &&
		c.crashed[victim] && !c.removed[victim] &&
		!c.crashed[self] && !c.removed[self]
	var captured []member.Config
	if ok {
		captured = make([]member.Config, len(c.groups))
		for g := range c.groups {
			captured[g] = c.groups[g].sites[self].Tracker.Config()
		}
	}
	c.mu.RUnlock()
	if !ok {
		return
	}
	c.cfg.events.Record(self, events.KindReplace,
		"phase", "propose", "victim", strconv.Itoa(victim))
	ctx, cancel := context.WithTimeout(context.Background(), autoReplaceTimeout)
	defer cancel()
	for g := range captured {
		snap := captured[g]
		_, err := c.proposeChange(ctx, g, self, func(int, member.Config) (member.Config, error) {
			return snap.WithReplace(transport.NodeID(victim), "")
		})
		if err == nil {
			continue
		}
		if g == 0 || !errors.Is(err, member.ErrEpochConflict) {
			return
		}
		if _, rerr := c.proposeChange(ctx, g, self, func(_ int, cfg member.Config) (member.Config, error) {
			return cfg.WithReplace(transport.NodeID(victim), "")
		}); rerr != nil {
			return
		}
	}
	// Every group committed the replacement; rebuild the identity as a
	// fresh replica (wipe semantics — the dead incarnation's durable
	// state does not come with it). Re-validate under the write lock:
	// Stop, RemoveSite or an operator's ReplaceSite may have moved first.
	rec := Replacement{
		Victim:      victim,
		SuspectedAt: suspectedAt,
		DetectedAt:  detectedAt,
		CommittedAt: time.Now(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || !c.crashed[victim] || c.removed[victim] || c.crashed[self] {
		return
	}
	if err := c.rejoinLocked(ctx, victim, true); err == nil {
		rec.RebuiltAt = time.Now()
		c.cfg.events.Record(self, events.KindReplace,
			"phase", "rebuilt", "victim", strconv.Itoa(victim))
	} else {
		c.cfg.events.Record(self, events.KindReplace,
			"phase", "rebuild-failed", "victim", strconv.Itoa(victim), "err", err.Error())
	}
	c.replMu.Lock()
	c.repls = append(c.repls, rec)
	c.replMu.Unlock()
}
