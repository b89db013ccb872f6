// Package site is the one place where a database site comes to life.
//
// The paper's replica is a fixed pipeline — atomic broadcast with
// optimistic delivery feeding the OTP class queues over a local store
// (Sections 2 and 3) — and every deployment brings one up the same way:
// Open seeds a fresh store, recovers the durability directory on top of
// it and primes the membership tracker; Start joins the group through a
// state transfer when donors are named, then assembles and starts
// consensus → broadcast engine → replica → state-transfer donor service.
// The in-process otpdb.Cluster and the otpd daemon both call exactly
// this and own only what is around it (DESIGN.md §1, "Site lifecycle").
// The two steps are separate calls because the daemon has work between
// them that needs the recovered state: its TCP mesh must follow the
// recovered membership before a donor can be reached.
package site

import (
	"context"
	"fmt"
	"slices"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/events"
	"otpdb/internal/fd"
	"otpdb/internal/member"
	"otpdb/internal/metrics"
	"otpdb/internal/recovery"
	"otpdb/internal/statex"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
	"otpdb/internal/wal"
)

// The join policy, one for every deployment: donors the failure detector
// does not suspect are asked first, each donor gets statex's negotiation
// timeout (3 s) to answer, and the donor list is walked probeRounds
// times — the second round catches a staggered restart where the first
// raced the donors' own start-up.
const probeRounds = 2

// Config describes one site. Every field is a value some lower layer
// already takes; the site only routes it there.
type Config struct {
	// Endpoint attaches the site to its group's transport; its ID is
	// the site's identity.
	Endpoint transport.Endpoint
	// Bootstrap is the epoch-1 group configuration, seeded at version 0
	// of a fresh store. Recovered or transferred state carrying a newer
	// committed configuration overrides it.
	Bootstrap member.Config
	// Seed, when non-nil, is the initial data a fresh store installs
	// (a checkpoint at index 0, like Bootstrap). The store shares its
	// values, so one image may seed every site.
	Seed *storage.Checkpoint
	// Dir is the durability directory; empty makes the site volatile.
	Dir string
	// Sync and CheckpointEvery configure the durability under Dir (see
	// recovery.Options).
	Sync            wal.SyncPolicy
	CheckpointEvery int
	// Conservative withholds Opt-delivery until TO-delivery
	// (abcast.WithConservativeDelivery): the classic processing the paper
	// compares against, on the same stack.
	Conservative bool
	// RoundTimeout and Suspector configure consensus (see
	// consensus.Config).
	RoundTimeout time.Duration
	Suspector    fd.Suspector
	// DefLogCap bounds the engine's retained definitive history; 0
	// keeps the engine's default.
	DefLogCap int
	// Replica is the template of the replica's configuration. Registry,
	// Queries, History, Trace and Shard pass through; the site sets the
	// rest (identity, broadcast, store, durability, resume index, metrics
	// and the membership hook).
	Replica db.Config
	// Metrics labels the telemetry of every layer of the site.
	Metrics *metrics.Scope
	// Events receives the state-transfer entries of the flight
	// recorder, joiner and donor side.
	Events *events.Recorder
}

// Join reports how Start entered the group. The zero value is a cold
// start from local state with no donor asked.
type Join struct {
	// Mode is the negotiated transfer shape (0: no transfer).
	Mode statex.Mode
	// Donor served the transfer; Backlog is the number of definitive
	// entries it handed over and Stage the consensus stage to resume at.
	Donor   transport.NodeID
	Backlog int
	Stage   uint64
	// Err is why a best-effort join fell back to a cold start.
	Err error
}

// Site is one site's stack. Open fills Tracker and Base; Start updates
// Base and fills the rest.
type Site struct {
	// Tracker is the site's view of the group configuration.
	Tracker *member.Tracker
	// Base is the definitive index the store is consistent at: what
	// local recovery reached, then what a transferred checkpoint holds.
	// The replica numbers new commits from Base+1.
	Base int64
	// Join is the outcome of Start's join half.
	Join Join
	// Replica is the running database replica.
	Replica *db.Replica
	// Engine is the OPT-ABcast engine.
	Engine *abcast.Optimistic

	cfg   Config
	store *storage.Store
	dur   *recovery.Durability
	donor *statex.Server
	stops []func() // in start order
}

// Open performs the local half of a site's life: fresh seeded store,
// recovery from Config.Dir, membership tracker. The caller owns the
// returned site and must Stop it, started or not.
func Open(cfg Config) (*Site, error) {
	id := cfg.Endpoint.ID()
	s := &Site{cfg: cfg, store: storage.NewStore()}
	member.Seed(s.store, cfg.Bootstrap)
	if cfg.Seed != nil {
		s.store.InstallCheckpoint(cfg.Seed)
	}
	if cfg.Dir != "" {
		dur, err := recovery.Open(cfg.Dir, recovery.Options{
			Sync:            cfg.Sync,
			CheckpointEvery: cfg.CheckpointEvery,
			Metrics:         cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("site %v: open durability: %w", id, err)
		}
		s.dur = dur
		if s.Base, err = dur.Recover(s.store); err != nil {
			s.Stop()
			return nil, fmt.Errorf("site %v: recover: %w", id, err)
		}
	}
	mcfg, err := member.CommittedConfig(s.store)
	if err != nil {
		s.Stop()
		return nil, fmt.Errorf("site %v: membership: %w", id, err)
	}
	s.Tracker = member.NewTracker(mcfg)
	return s, nil
}

// Start joins the group through the donors (the site's own identifier
// among them is skipped) — none is a cold start from local state — then
// assembles and starts the stack. With required set a join that no
// donor serves is an error; otherwise the site falls back to a cold
// start and records why in Join.Err, which is correct when the whole
// group restarts together and wrong when the group kept running, so the
// caller should make it loud. On error the site is stopped, durability
// included.
func (s *Site) Start(ctx context.Context, donors []transport.NodeID, required bool) (err error) {
	defer func() {
		if err != nil {
			s.Stop()
		}
	}()
	ep, id, scope := s.cfg.Endpoint, s.cfg.Endpoint.ID(), s.cfg.Metrics
	donors = slices.DeleteFunc(slices.Clone(donors), func(n transport.NodeID) bool { return n == id })
	var join *abcast.JoinState
	switch {
	case len(donors) > 0:
		if join, err = s.fetch(ctx, donors, required); err != nil {
			return err
		}
	case required:
		return fmt.Errorf("site %v: no donor to join from", id)
	}

	ccfg := consensus.Config{
		Endpoint:     ep,
		Suspector:    s.cfg.Suspector,
		RoundTimeout: s.cfg.RoundTimeout,
		View:         s.Tracker,
		Metrics:      scope,
	}
	aopts := []abcast.Option{abcast.WithDefBase(uint64(s.Base)), abcast.WithMetrics(scope)}
	if s.cfg.DefLogCap > 0 {
		aopts = append(aopts, abcast.WithDefLogCap(s.cfg.DefLogCap))
	}
	if s.cfg.Conservative {
		aopts = append(aopts, abcast.WithConservativeDelivery())
	}
	if join != nil {
		ccfg.CatchUpFrom = join.StartStage
		aopts = append(aopts, abcast.WithJoin(*join))
	}
	cons := consensus.New(ccfg)
	cons.Start()
	s.stops = append(s.stops, cons.Stop)
	s.Engine = abcast.NewOptimistic(ep, cons, aopts...)
	if err := s.Engine.Start(); err != nil {
		return fmt.Errorf("site %v: start broadcast: %w", id, err)
	}
	s.stops = append(s.stops, func() { _ = s.Engine.Stop() })

	rcfg := s.cfg.Replica
	rcfg.ID = id
	rcfg.Broadcast = s.Engine
	rcfg.Store = s.store
	rcfg.Durability = s.dur
	rcfg.InitialTOIndex = s.Base
	rcfg.Metrics = scope
	rcfg.ConfigClass = member.Class
	rcfg.OnConfigCommit = func(v storage.Value, _ int64) {
		if next, derr := member.Decode(v); derr == nil {
			s.Tracker.Apply(next)
		}
	}
	rep, err := db.New(rcfg)
	if err != nil {
		return fmt.Errorf("site %v: replica: %w", id, err)
	}
	rep.Start()
	// From here the replica owns the durability handle and closes it
	// with its own Stop, after the last commit has been logged.
	s.stops = append(s.stops, rep.Stop)
	s.Replica = rep

	// Every site doubles as a state-transfer donor.
	s.donor = statex.NewServer(ep, statex.ReplicaSource{Replica: rep, Engine: s.Engine}, s.cfg.Events)
	s.donor.Start()
	s.stops = append(s.stops, s.donor.Stop)
	return nil
}

// fetch runs the state transfer and installs its result: a checkpoint
// replaces the store, resets the durability directory to it and moves
// the tracker to the configuration it carries. It returns the state the
// broadcast engine resumes from, or nil after a best-effort fallback.
func (s *Site) fetch(ctx context.Context, donors []transport.NodeID, required bool) (*abcast.JoinState, error) {
	id := s.cfg.Endpoint.ID()
	var xfer *statex.Transfer
	var err error
	for round := 0; round < probeRounds; round++ {
		xfer, err = statex.Fetch(ctx, s.cfg.Endpoint, s.Base, s.donorOrder(donors), statex.Options{
			Metrics: s.cfg.Metrics,
			Events:  s.cfg.Events,
		})
		if err == nil || ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		if required {
			return nil, fmt.Errorf("site %v: state transfer: %w", id, err)
		}
		s.Join.Err = err
		return nil, nil
	}
	if xfer.Mode == statex.CheckpointTail {
		store := storage.NewStore()
		store.InstallCheckpoint(xfer.Checkpoint)
		mcfg, err := member.CommittedConfig(store)
		if err != nil {
			return nil, fmt.Errorf("site %v: transferred checkpoint: membership: %w", id, err)
		}
		if s.dur != nil {
			// Local history is obsolete below the transferred checkpoint;
			// a later cold restart recovers from here on.
			if err := s.dur.ResetTo(xfer.Checkpoint); err != nil {
				return nil, fmt.Errorf("site %v: reset durability: %w", id, err)
			}
		}
		s.store, s.Base = store, xfer.Base
		s.Tracker.Apply(mcfg)
	}
	s.Join = Join{Mode: xfer.Mode, Donor: xfer.Donor, Backlog: len(xfer.Join.Backlog), Stage: xfer.Join.StartStage}
	return &xfer.Join, nil
}

// donorOrder puts the donors the failure detector does not suspect
// first. Right after start-up the detector has heard nobody, so the
// order is the caller's and Fetch's per-donor timeout skims past dead
// peers; by the second probe round it knows better.
func (s *Site) donorOrder(donors []transport.NodeID) []transport.NodeID {
	if s.cfg.Suspector == nil {
		return donors
	}
	var live, suspect []transport.NodeID
	for _, id := range donors {
		if s.cfg.Suspector.Suspected(id) {
			suspect = append(suspect, id)
		} else {
			live = append(live, id)
		}
	}
	return append(live, suspect...)
}

// Serving reports how many state transfers the site is streaming to
// joiners right now.
func (s *Site) Serving() int {
	if s.donor == nil {
		return 0
	}
	return s.donor.Serving()
}

// Stop tears the stack down in reverse start order, flushes and closes
// durability, and waits for the site's goroutines. It is safe on a site
// that was never started and on one that is already stopped.
func (s *Site) Stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	if s.dur != nil {
		_ = s.dur.Close() // idempotent: the replica's Stop has closed it on the normal path
	}
}
