package otpdb

import (
	"fmt"
	"sort"
	"time"

	"otpdb/internal/fd"
	"otpdb/internal/transport"
)

// CrashedSites reports the sites currently downed by CrashSite, in
// ascending order.
func (c *Cluster) CrashedSites() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for i, down := range c.crashed {
		if down {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// FaultInjector manipulates the cluster's in-process network and site
// behaviour for fault-injection testing — the control surface the chaos
// harness (internal/chaos) drives. Every method applies to all shard
// groups: site i of every group shares a failure domain, so a partition
// or a WAN link profile affects the site as a whole.
//
// The injector only works for in-process clusters (the default
// transport); it is not part of the data-plane API and its faults are
// invisible to the protocol layers, which see only the resulting delay,
// loss and silence.
type FaultInjector struct {
	c *Cluster
}

// Fault returns the cluster's fault injector.
func (c *Cluster) Fault() *FaultInjector { return &FaultInjector{c: c} }

// checkSites validates site indexes against shard 0's site table.
func (f *FaultInjector) checkSites(sites ...int) error {
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	if !f.c.started || f.c.stopped {
		return ErrNotStarted
	}
	n := len(f.c.groups[0].sites)
	for _, s := range sites {
		if s < 0 || s >= n {
			return fmt.Errorf("%w: %d", ErrBadSite, s)
		}
	}
	return nil
}

// Partition cuts both directions of the link between two sites in every
// shard group. In-flight messages still deliver; nothing new crosses
// until Heal.
func (f *FaultInjector) Partition(a, b int) error {
	if err := f.checkSites(a, b); err != nil {
		return err
	}
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	for _, grp := range f.c.groups {
		grp.hub.Partition(transport.NodeID(a), transport.NodeID(b))
	}
	return nil
}

// Heal removes the partition between two sites in every shard group.
func (f *FaultInjector) Heal(a, b int) error {
	if err := f.checkSites(a, b); err != nil {
		return err
	}
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	for _, grp := range f.c.groups {
		grp.hub.Heal(transport.NodeID(a), transport.NodeID(b))
	}
	return nil
}

// HealAll removes every partition.
func (f *FaultInjector) HealAll() error {
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	if !f.c.started || f.c.stopped {
		return ErrNotStarted
	}
	for _, grp := range f.c.groups {
		n := grp.hub.Len()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				grp.hub.Heal(transport.NodeID(a), transport.NodeID(b))
			}
		}
	}
	return nil
}

// SetLink installs a directed link profile (delay, jitter, loss) from
// one site to another in every shard group — the building block of WAN
// topologies and asymmetric degradation.
func (f *FaultInjector) SetLink(from, to int, p transport.LinkProfile) error {
	if err := f.checkSites(from, to); err != nil {
		return err
	}
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	for _, grp := range f.c.groups {
		grp.hub.SetLink(transport.NodeID(from), transport.NodeID(to), p)
	}
	return nil
}

// ClearLink removes the directed link profile between two sites in
// every shard group, restoring that link to the base configuration.
func (f *FaultInjector) ClearLink(from, to int) error {
	if err := f.checkSites(from, to); err != nil {
		return err
	}
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	for _, grp := range f.c.groups {
		grp.hub.ClearLink(transport.NodeID(from), transport.NodeID(to))
	}
	return nil
}

// ClearLinks removes every link profile, returning the network to its
// base delay/jitter configuration.
func (f *FaultInjector) ClearLinks() error {
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	if !f.c.started || f.c.stopped {
		return ErrNotStarted
	}
	for _, grp := range f.c.groups {
		grp.hub.ClearLinks()
	}
	return nil
}

// StallCommits makes every shard replica at a site dwell for d before
// each definitive delivery — a stalled WAL fsync / saturated disk, and
// E12's modeled flush device. Zero clears the stall. The dwell is
// transport.Dwell, not a spin: a chaos run hosts dozens of sites in one
// process.
func (f *FaultInjector) StallCommits(site int, d time.Duration) error {
	if err := f.checkSites(site); err != nil {
		return err
	}
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	for _, grp := range f.c.groups {
		if site < len(grp.sites) && !f.c.crashed[site] && !f.c.removed[site] {
			grp.sites[site].Replica.SetCommitStall(d)
		}
	}
	return nil
}

// GhostHeartbeat injects one stale-incarnation failure-detector
// heartbeat from a (typically crashed) site to a live one — the replay
// a reconnecting transport emits when it drains a dead process's
// backlog. Detectors must drop it: a ghost must not refresh the dead
// site's lease and stall its replacement. The injection bypasses the
// sender's crashed state but not the receiver's or any partition.
func (f *FaultInjector) GhostHeartbeat(from, to int) error {
	if err := f.checkSites(from, to); err != nil {
		return err
	}
	f.c.mu.RLock()
	defer f.c.mu.RUnlock()
	// Detectors live on shard group 0's endpoints (one verdict per
	// failure domain); ghost traffic goes where they listen.
	f.c.groups[0].hub.Inject(transport.NodeID(from), transport.NodeID(to), fd.Stream, fd.Heartbeat{Inc: 1})
	return nil
}
