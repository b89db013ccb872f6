// Package otpdb is a replicated in-memory database that processes
// transactions over an atomic broadcast with optimistic delivery,
// reproducing Kemme, Pedone, Alonso and Schiper, "Processing Transactions
// over Optimistic Atomic Broadcast Protocols" (ICDCS 1999).
//
// A Cluster runs n database replicas in one process, connected by an
// in-memory network. Update transactions are stored procedures bound to a
// conflict class; they are TO-broadcast, optimistically executed in
// tentative delivery order at every site, and committed once the
// definitive total order confirms the tentative one (transactions are
// undone and redone when it does not). Read-only queries execute locally
// against consistent multi-version snapshots and never block updates.
//
// Clients talk to the cluster through a Session bound to one site.
// Session.Exec returns a typed Result — the procedure's return value, the
// definitive total-order index, the commit latency, and an Outcome
// reporting whether the transaction took the optimistic fast path or was
// reordered/retried by the Correctness Check. Session.SubmitAsync returns
// a Handle future so many transactions can be pipelined per client, which
// is where optimistic atomic broadcast earns its throughput:
//
//	cluster, err := otpdb.NewCluster(otpdb.WithReplicas(3))
//	...
//	cluster.MustRegisterUpdate(otpdb.Update{
//	    Name:  "credit",
//	    Class: "accounts",
//	    Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
//	        v, _ := ctx.Read("balance")
//	        next := otpdb.Int64(otpdb.AsInt64(v) + 10)
//	        return next, ctx.Write("balance", next)
//	    },
//	})
//	if err := cluster.Start(); err != nil { ... }
//	defer cluster.Stop()
//
//	sess, _ := cluster.Session(0)
//	res, err := sess.Exec(context.Background(), "credit")
//	// res.Value is the new balance; res.Outcome is otpdb.FastPath when
//	// the tentative order held.
//
//	// Pipelined submission: keep many transactions in flight.
//	var handles []*otpdb.Handle
//	for i := 0; i < 100; i++ {
//	    h, _ := sess.SubmitAsync("credit")
//	    handles = append(handles, h)
//	}
//	for _, h := range handles {
//	    res, _ := h.Result() // resolves at local commit
//	    _ = res.TOIndex
//	}
//
// # Horizontal sharding
//
// WithShards(s) partitions the conflict-class namespace across s
// independent OTP groups, each with its own broadcast, scheduler and
// durability stack; every site hosts one replica of every shard. Classes
// map to shards by consistent hashing (PinClass overrides). Sessions
// route transparently: a transaction whose classes live in one shard
// runs the paper's protocol unchanged inside that shard's group, and a
// transaction spanning shards is ordered definitively in every touched
// shard by an optimistic two-phase protocol (internal/shard) that
// commits everywhere or nowhere. Queries combine one consistent snapshot
// per touched shard.
//
// Multi-process deployments over TCP are provided by cmd/otpd; the
// experiment harness reproducing the paper's figures by cmd/otpbench.
package otpdb

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/db"
	"otpdb/internal/events"
	"otpdb/internal/fd"
	"otpdb/internal/history"
	"otpdb/internal/member"
	"otpdb/internal/metrics"
	"otpdb/internal/otp"
	"otpdb/internal/shard"
	"otpdb/internal/site"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
	"otpdb/internal/wal"
)

// Re-exported data types. Values are immutable byte strings; helpers
// below convert to and from Go types.
type (
	// Value is a database value: an immutable byte string. Values passed
	// INTO the database (procedure arguments, Write) are copied at the
	// storage boundary, so callers may reuse their buffers. Values
	// handed OUT (Read, Query results, procedure reads) alias the
	// committed version and MUST NOT be modified — mutating one corrupts
	// the store's version history in place. Build a new Value (e.g. via
	// Int64/String or append to a nil slice) instead of editing in
	// place.
	Value = storage.Value
	// Key identifies an object within a conflict class.
	Key = storage.Key
	// Class names a conflict class (Section 2.3 of the paper): the unit
	// of conflict detection and of storage partitioning.
	Class = sproc.ClassID
	// UpdateCtx is the data access interface of update procedures.
	UpdateCtx = sproc.UpdateCtx
	// QueryCtx is the data access interface of read-only queries.
	QueryCtx = sproc.QueryCtx
	// Update declares an update stored procedure.
	Update = sproc.Update
	// MultiUpdate declares an update procedure spanning several conflict
	// classes — the finer-granularity model of the paper's companion
	// report [13] (Sections 2.3 and 6).
	MultiUpdate = sproc.MultiUpdate
	// MultiUpdateCtx is the data access interface of multi-class updates.
	MultiUpdateCtx = sproc.MultiUpdateCtx
	// Query declares a read-only stored procedure.
	Query = sproc.Query
)

// Int64 encodes an int64 as a Value.
func Int64(n int64) Value { return storage.Int64Value(n) }

// AsInt64 decodes a Value produced by Int64 (missing values decode to 0).
func AsInt64(v Value) int64 { return storage.ValueInt64(v) }

// String encodes a string as a Value.
func String(s string) Value { return storage.StringValue(s) }

// AsString decodes a Value as a string.
func AsString(v Value) string { return storage.ValueString(v) }

// Ordering selects when the atomic broadcast hands a transaction to the
// database. Both values run the same engine — same messages, same
// consensus stages, same definitive order, same fault tolerance.
type Ordering int

// Orderings.
const (
	// OptimisticOrdering is the paper's OPT-ABcast: tentative delivery on
	// reception, so execution overlaps the ordering (commit ≈ max(E, D)).
	// The default.
	OptimisticOrdering Ordering = iota + 1
	// ConservativeOrdering is classic atomic broadcast processing, the
	// paper's baseline: a transaction is delivered, and starts executing,
	// only when its definitive position is known (commit ≈ E + D).
	ConservativeOrdering
)

// SyncPolicy selects when write-ahead log appends reach stable storage
// (see WithDurability).
type SyncPolicy = wal.SyncPolicy

// Sync policies.
const (
	// SyncEveryCommit fsyncs before a commit is acknowledged: durable
	// against machine crashes, at per-commit fsync cost.
	SyncEveryCommit = wal.SyncEveryCommit
	// SyncGrouped fsyncs on a short background timer: a bounded window
	// of acknowledged commits may be lost on machine crash, none on
	// process crash. The default.
	SyncGrouped = wal.SyncGrouped
	// SyncNever leaves flushing to the operating system.
	SyncNever = wal.SyncNever
)

// config collects the cluster options.
type config struct {
	replicas     int
	shards       int
	netDelay     time.Duration
	netJitter    time.Duration
	seed         int64
	ordering     Ordering
	queryMode    db.QueryMode
	roundTimeout time.Duration // 100 ms; tests lower it (export_test.go)
	recordHist   bool
	durDir       string
	syncPolicy   SyncPolicy
	ckptEvery    int
	defLogCap    int
	voteTimeout  time.Duration // 0: shard's defaults; tests lower both
	resolveAfter time.Duration
	autoReplace  bool
	suspectWin   time.Duration
	metrics      *metrics.Registry
	trace        *metrics.TraceRing
	events       *events.Recorder
}

// Option configures NewCluster.
type Option func(*config)

// WithReplicas sets the number of replicas per shard (default 3).
func WithReplicas(n int) Option { return func(c *config) { c.replicas = n } }

// WithShards partitions the conflict classes across n independent OTP
// groups (default 1 — the paper's single-group protocol). Every site
// hosts one replica of every shard; single-shard transactions never
// cross groups, and cross-shard transactions are two-phase ordered (see
// the package comment).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithNetworkDelay adds a fixed delivery delay between replicas; a site's
// messages to itself are never delayed.
func WithNetworkDelay(d time.Duration) Option { return func(c *config) { c.netDelay = d } }

// WithNetworkJitter adds a random delivery delay in [0, d), which causes
// tentative/definitive order mismatches — useful for exercising the
// abort/reorder path.
func WithNetworkJitter(d time.Duration) Option { return func(c *config) { c.netJitter = d } }

// WithSeed seeds the network randomness (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithOrdering selects the delivery policy (default OptimisticOrdering).
func WithOrdering(o Ordering) Option { return func(c *config) { c.ordering = o } }

// WithDirtyQueries disables the Section 5 snapshot rule — queries read
// the latest committed values with no index discipline. Provided only to
// demonstrate the anomaly the snapshot rule prevents.
func WithDirtyQueries() Option {
	return func(c *config) { c.queryMode = db.DirtyQueries }
}

// WithHistoryRecording enables recording of commits and query reads so
// CheckHistory can verify 1-copy-serializability after a run.
func WithHistoryRecording() Option { return func(c *config) { c.recordHist = true } }

// WithDurability makes every replica durable under dir (one
// subdirectory per site, or per shard and site with WithShards):
// definitive commits are written ahead to a segmented, CRC-framed log
// and periodic checkpoints bound replay. On Start each replica recovers
// its committed state from its directory and resumes at the recovered
// definitive index — the "traditional recovery techniques" the paper
// assumes each site has (Section 3.2).
//
// Restarting a whole multi-site cluster from durable state requires
// every site to have recovered the same index (stop the cluster
// cleanly); a single crashed site instead rejoins a running cluster
// with RestartSite, which transfers a peer checkpoint and the missed
// definitive deliveries regardless of local state.
func WithDurability(dir string) Option {
	return func(c *config) { c.durDir = dir }
}

// WithSyncPolicy selects the WAL fsync policy (default SyncGrouped).
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.syncPolicy = p }
}

// WithCheckpointEvery sets how many local commits pass between durable
// checkpoints (default 4096; negative disables periodic checkpoints, so
// recovery replays the whole log).
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.ckptEvery = n }
}

// WithDefLogCap bounds each broadcast engine's retained definitive
// history (default 64Ki entries). A rejoining site whose gap reaches
// below the retained window falls back from a tail-only state transfer
// to a full checkpoint + tail; shrinking the cap forces that fallback in
// tests and benchmarks.
func WithDefLogCap(n int) Option {
	return func(c *config) { c.defLogCap = n }
}

// WithAutoReplace closes the self-healing loop: every live site runs a
// heartbeat failure detector (internal/fd), and when a site has been
// continuously suspected for the given window, survivors automatically
// propose the ReplaceSite configuration change and rebuild the identity
// as a fresh replica — a crashed site heals with no operator action.
//
// The race between survivors is resolved by the membership protocol
// itself: each proposer derives its change from the configuration it
// captured when the window expired, so exactly one proposal commits per
// epoch and every loser observes member.ErrEpochConflict and backs off
// for a full further window. Replacement only fires for sites downed at
// the transport level (CrashSite); a partitioned-but-alive site is
// suspected but never replaced — heal the partition instead.
//
// window <= 0 selects the 500 ms default.
func WithAutoReplace(window time.Duration) Option {
	return func(c *config) {
		c.autoReplace = true
		c.suspectWin = window
	}
}

// WithMetrics attaches a runtime metrics registry: every layer of every
// site stack — broadcast engine, consensus, scheduler, WAL, failure
// detector, state transfer, cross-shard coordinator — registers its
// telemetry there, labelled by shard and site. Snapshot the registry
// directly, or serve it as a Prometheus scrape surface with
// metrics.WriteProm. Instruments are lock-free atomics with fixed-bucket
// histograms; the registry adds no allocation to the hot path.
func WithMetrics(r *metrics.Registry) Option {
	return func(c *config) { c.metrics = r }
}

// WithTraceRing attaches a per-transaction trace ring: every replica
// records submit/opt-deliver/to-deliver/commit/abort span events for the
// transactions it processes, tagged with site and shard. The ring is
// fixed-size and lock-cheap; inspect it with TraceRing.Find(txnid).
func WithTraceRing(t *metrics.TraceRing) Option {
	return func(c *config) { c.trace = t }
}

// WithEvents attaches a flight recorder: the rare, causally significant
// transitions — epoch changes, failure-detector suspicions and clears,
// auto-replacement rounds, state-transfer negotiations — are appended to
// its bounded ring as structured events. Dump it after an incident
// (events.Recorder.DumpJSON) or stream it live (Watch); the chaos
// harness dumps it automatically when an invariant trips.
func WithEvents(rec *events.Recorder) Option {
	return func(c *config) { c.events = rec }
}

// group is one shard's replica group: its own in-memory network and one
// site stack per site — structurally a pre-sharding Cluster. Site i of
// every group lives in the same failure domain (CrashSite downs site i
// of all groups).
type group struct {
	hub      *transport.Hub
	recorder *history.Recorder
	sites    []*site.Site // replica, engine, tracker, base, join outcome
	stops    []func()     // per site: what the cluster runs beside the stack, then the stack
}

// Cluster is an in-process set of replicated shard groups (one group in
// the default single-shard configuration).
type Cluster struct {
	cfg       config
	registry  *sproc.Registry
	smap      *shard.Map
	shub      *shard.Hub
	coord     *shard.Coordinator
	seeds     map[Class][]storage.KeyVersion // Seed's copies, per class in call order
	images    []*storage.Checkpoint          // per shard group, the seeds every fresh store installs (set by Start)
	bootstrap member.Config                  // epoch-1 configuration seeded into every fresh store (set by Start)

	// mu guards the per-site state below: RestartSite swaps a site's
	// whole stack while sessions and cluster methods resolve replicas
	// through it.
	mu       sync.RWMutex
	groups   []*group
	sessions []*Session
	crashed  map[int]bool
	removed  map[int]bool // sites voted out of the group
	started  bool
	stopped  bool

	// replMu guards the auto-replacement audit trail (its writers hold
	// c.mu in mixed modes, so it needs its own lock).
	replMu sync.Mutex
	repls  []Replacement
}

// Replacement is one auto-replacement's timeline, recorded by the
// survivor that won the round (see WithAutoReplace). The phases separate
// detection cost (SuspectedAt→DetectedAt: the sustained-suspicion
// hysteresis window) from repair cost (DetectedAt→CommittedAt: the
// membership rounds; CommittedAt→RebuiltAt: the state transfer).
type Replacement struct {
	// Victim is the replaced site's index.
	Victim int
	// SuspectedAt is when the winner's detector first suspected the
	// victim in the unbroken stretch that expired the window.
	SuspectedAt time.Time
	// DetectedAt is when the suspicion window expired and the winner
	// began proposing the replacement.
	DetectedAt time.Time
	// CommittedAt is when every shard group had committed the
	// ReplaceSite configuration change.
	CommittedAt time.Time
	// RebuiltAt is when the replacement replica finished its state
	// transfer and rejoined; zero if the rebuild failed (the next
	// window retries and appends its own record).
	RebuiltAt time.Time
}

// Replacements returns the auto-replacement rounds won by this process,
// oldest first (a copy; safe to retain).
func (c *Cluster) Replacements() []Replacement {
	c.replMu.Lock()
	defer c.replMu.Unlock()
	out := make([]Replacement, len(c.repls))
	copy(out, c.repls)
	return out
}

// siteScope labels one site's metric series within one shard group; with
// no registry configured it returns the nil (inert) scope.
func (c *Cluster) siteScope(g, i int) *metrics.Scope {
	return c.cfg.metrics.Scope("shard", strconv.Itoa(g), "site", strconv.Itoa(i))
}

// Errors returned by the cluster.
var (
	// ErrStarted is returned by configuration methods after Start.
	ErrStarted = errors.New("otpdb: cluster already started")
	// ErrNotStarted is returned by data methods before Start.
	ErrNotStarted = errors.New("otpdb: cluster not started")
	// ErrBadSite is returned for an out-of-range site index.
	ErrBadSite = errors.New("otpdb: no such site")
	// ErrBadShard is returned for an out-of-range shard index.
	ErrBadShard = errors.New("otpdb: no such shard")
)

// Open creates an unstarted single-replica durable database rooted at
// dir — the embedded, store-like entry point. Register procedures, then
// Start: the replica replays its checkpoint and write-ahead log tail
// and resumes at the recovered commit index (RecoveredIndex(0) reports
// it). Stop flushes the log; a killed process recovers on the next
// Open/Start.
//
//	db, _ := otpdb.Open(dir)
//	db.MustRegisterUpdate(...)
//	_ = db.Start()
//	defer db.Stop()
func Open(dir string, opts ...Option) (*Cluster, error) {
	all := append([]Option{WithReplicas(1), WithDurability(dir)}, opts...)
	return NewCluster(all...)
}

// NewCluster creates an unstarted cluster.
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := config{
		replicas:     3,
		shards:       1,
		seed:         1,
		ordering:     OptimisticOrdering,
		queryMode:    db.SnapshotQueries,
		roundTimeout: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.replicas <= 0 {
		return nil, fmt.Errorf("otpdb: replicas must be positive, got %d", cfg.replicas)
	}
	if cfg.shards <= 0 {
		return nil, fmt.Errorf("otpdb: shards must be positive, got %d", cfg.shards)
	}
	if cfg.autoReplace && cfg.suspectWin <= 0 {
		cfg.suspectWin = 500 * time.Millisecond
	}
	m, err := shard.NewMap(cfg.shards)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, registry: sproc.NewRegistry(), smap: m, seeds: make(map[Class][]storage.KeyVersion)}
	return c, nil
}

// RegisterUpdate adds an update stored procedure. Must be called before
// Start; procedures must be deterministic (they re-execute at every
// replica).
func (c *Cluster) RegisterUpdate(u Update) error {
	if c.started {
		return ErrStarted
	}
	return c.registry.RegisterUpdate(u)
}

// MustRegisterUpdate is RegisterUpdate that panics on error, for
// program-initialization use.
func (c *Cluster) MustRegisterUpdate(u Update) {
	if err := c.RegisterUpdate(u); err != nil {
		panic(err)
	}
}

// RegisterMultiUpdate adds a multi-class update procedure. The
// transaction conflicts with every transaction sharing any of its classes
// and runs only when it heads all of their queues. Must be called before
// Start. With WithShards, a procedure whose classes span several shards
// is executed as a cross-shard transaction (atomic across shards, at
// two-phase cost); keep hot procedures single-shard by pinning their
// classes together.
func (c *Cluster) RegisterMultiUpdate(u MultiUpdate) error {
	if c.started {
		return ErrStarted
	}
	return c.registry.RegisterMulti(u)
}

// MustRegisterMultiUpdate is RegisterMultiUpdate that panics on error.
func (c *Cluster) MustRegisterMultiUpdate(u MultiUpdate) {
	if err := c.RegisterMultiUpdate(u); err != nil {
		panic(err)
	}
}

// RegisterQuery adds a read-only stored procedure. Must be called before
// Start.
func (c *Cluster) RegisterQuery(q Query) error {
	if c.started {
		return ErrStarted
	}
	return c.registry.RegisterQuery(q)
}

// MustRegisterQuery is RegisterQuery that panics on error.
func (c *Cluster) MustRegisterQuery(q Query) {
	if err := c.RegisterQuery(q); err != nil {
		panic(err)
	}
}

// Seed loads an initial value into every replica's copy of a class before
// the cluster starts (version index 0). The value is copied, so the caller
// may reuse its buffer; a nil value reads as absent, and the last Seed of
// a key wins. The seed lands only in the shard owning the class.
func (c *Cluster) Seed(class Class, key Key, value Value) error {
	if c.started {
		return ErrStarted
	}
	c.seeds[class] = append(c.seeds[class], storage.KeyVersion{Key: key, Value: Value(bytes.Clone(value))})
	return nil
}

// Shards reports the number of shard groups.
func (c *Cluster) Shards() int { return c.cfg.shards }

// ShardOf reports the shard owning a conflict class.
func (c *Cluster) ShardOf(class Class) int { return c.smap.Locate(class) }

// PinClass forces a class onto a shard, overriding the consistent-hash
// assignment. Must be called before Start; every process of a deployment
// must apply identical pins in identical order.
func (c *Cluster) PinClass(class Class, shardID int) error {
	if c.started {
		return ErrStarted
	}
	return c.smap.Pin(class, shardID)
}

// siteDir is one replica's durability directory. The single-shard layout
// (site-N directly under the root) predates sharding and is preserved so
// existing data directories keep recovering.
func (c *Cluster) siteDir(g, i int) string {
	if c.cfg.shards == 1 {
		return filepath.Join(c.cfg.durDir, fmt.Sprintf("site-%d", i))
	}
	return filepath.Join(c.cfg.durDir, fmt.Sprintf("shard-%d", g), fmt.Sprintf("site-%d", i))
}

// seedImages groups the seeds into one checkpoint at index 0 per shard
// group, each class in the group owning it now that every PinClass is
// in. Every site the group opens installs its image and shares the
// image's values. A key seeded twice is listed twice, and
// InstallCheckpoint keeps the last.
func (c *Cluster) seedImages() []*storage.Checkpoint {
	images := make([]*storage.Checkpoint, c.cfg.shards)
	for g := range images {
		images[g] = &storage.Checkpoint{}
	}
	for class, keys := range c.seeds {
		img := images[c.smap.Locate(class)]
		img.Partitions = append(img.Partitions, storage.PartitionCheckpoint{Partition: storage.Partition(class), Keys: keys})
	}
	for _, img := range images {
		slices.SortFunc(img.Partitions, func(a, b storage.PartitionCheckpoint) int {
			return cmp.Compare(a.Partition, b.Partition)
		})
	}
	return images
}

// startSite brings site i of group g to life on ep (internal/site): a
// cold start, or with donors named a required state-transfer join. The
// cluster adds the option plumbing and, with WithAutoReplace, the site's
// failure detector and replacer. It returns the stack and the function
// that stops it. Callers hold c.mu.
func (c *Cluster) startSite(ctx context.Context, grp *group, g, i int, ep transport.Endpoint,
	donors []transport.NodeID) (*site.Site, func(), error) {
	scope := c.siteScope(g, i)
	cfg := site.Config{
		Endpoint:        ep,
		Bootstrap:       c.bootstrap,
		Seed:            c.images[g],
		Sync:            c.cfg.syncPolicy,
		CheckpointEvery: c.cfg.ckptEvery,
		Conservative:    c.cfg.ordering == ConservativeOrdering,
		RoundTimeout:    c.cfg.roundTimeout,
		DefLogCap:       c.cfg.defLogCap,
		Replica: db.Config{
			Registry: c.registry,
			Queries:  c.cfg.queryMode,
			Trace:    c.cfg.trace,
			Shard:    g,
		},
		Metrics: scope,
		Events:  c.cfg.events,
	}
	if c.cfg.durDir != "" {
		cfg.Dir = c.siteDir(g, i)
	}
	if grp.recorder != nil {
		cfg.Replica.History = grp.recorder
	}
	var det *fd.Detector
	if c.cfg.autoReplace && g == 0 {
		det = c.newDetector(ep, scope)
		cfg.Suspector = det
	}
	s, err := site.Open(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("otpdb: %w", err)
	}
	if g == 0 {
		// One epoch-change event per site, not per shard replica: group 0
		// is where membership is gated (see tryAutoReplace).
		s.Tracker.SetEvents(c.cfg.events, i)
	}
	if err := s.Start(ctx, donors, len(donors) > 0); err != nil {
		return nil, nil, fmt.Errorf("otpdb: %w", err)
	}
	if det == nil {
		return s, s.Stop, nil
	}
	return s, c.armAutoReplace(i, det, s), nil
}

// Start builds the networks, broadcast engines and replicas of every
// shard group, and begins processing. With durability enabled, every
// replica first recovers its committed state from its data directory and
// resumes at the recovered definitive index.
func (c *Cluster) Start() error {
	if c.started {
		return ErrStarted
	}
	c.started = true
	// The group configuration is ordinary replicated state: register the
	// reserved change procedure; every site seeds the epoch-1 bootstrap
	// config below. Each shard group carries its own copy — membership
	// changes are committed through every group's definitive order.
	if err := member.RegisterProc(c.registry); err != nil {
		return fmt.Errorf("otpdb: register membership procedure: %w", err)
	}
	// Cross-shard machinery: the prepare/decide procedures exist in
	// every configuration (inert at one shard), the hub connects their
	// local executions, the coordinator drives multi-shard commits.
	c.shub = shard.NewHub(shard.Config{ResolveAfter: c.cfg.resolveAfter, Metrics: c.cfg.metrics.Scope()})
	if err := c.shub.Register(c.registry); err != nil {
		return fmt.Errorf("otpdb: register cross-shard procedures: %w", err)
	}
	c.coord = shard.NewCoordinator(c.shub, c.smap, c.registry, shard.CoordConfig{
		VoteTimeout: c.cfg.voteTimeout,
		Metrics:     c.cfg.metrics.Scope(),
		Trace:       c.cfg.trace,
	})
	bootstrapIDs := make(map[transport.NodeID]string, c.cfg.replicas)
	for i := 0; i < c.cfg.replicas; i++ {
		bootstrapIDs[transport.NodeID(i)] = ""
	}
	c.bootstrap = member.Bootstrap(bootstrapIDs)
	c.images = c.seedImages()

	if err := c.startGroups(); err != nil {
		return err
	}
	for i := 0; i < c.cfg.replicas; i++ {
		c.sessions = append(c.sessions, c.newSession(i))
	}
	c.shub.Start()
	return nil
}

// startGroups cold-starts every site of every shard group. A failure
// tears down everything built so far — running sites, their open
// durability directories, the hubs — and leaves the cluster stopped.
func (c *Cluster) startGroups() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fail := func(err error) error {
		c.stopped = true
		stopGroups(c.groups)
		c.groups = nil
		return err
	}
	for g := 0; g < c.cfg.shards; g++ {
		grp := &group{}
		if c.cfg.recordHist {
			grp.recorder = history.NewRecorder()
		}
		var hubOpts []transport.MemOption
		// Distinct seeds decorrelate the groups' network randomness.
		hubOpts = append(hubOpts, transport.WithSeed(c.cfg.seed+int64(g)))
		if c.cfg.netDelay > 0 {
			hubOpts = append(hubOpts, transport.WithDelay(c.cfg.netDelay))
		}
		if c.cfg.netJitter > 0 {
			hubOpts = append(hubOpts, transport.WithJitter(c.cfg.netJitter))
		}
		grp.hub = transport.NewHub(c.cfg.replicas, hubOpts...)
		c.groups = append(c.groups, grp)
		for i := 0; i < c.cfg.replicas; i++ {
			s, stop, err := c.startSite(context.Background(), grp, g, i, grp.hub.Endpoint(transport.NodeID(i)), nil)
			if err != nil {
				return fail(err)
			}
			grp.sites = append(grp.sites, s)
			grp.stops = append(grp.stops, stop)
			if s.Base != grp.sites[0].Base {
				// Sites that recovered different definitive indexes would
				// assign different TOIndexes to the same decisions and
				// diverge silently. This happens after an unclean multi-site
				// shutdown under the grouped/off sync policies; the
				// crashed-site path is RestartSite against a running
				// majority, not a cold restart. Fail loudly instead.
				return fail(fmt.Errorf("otpdb: durable sites of shard %d recovered to different indexes (site 0: %d, site %d: %d); restart lagging sites into a running cluster with RestartSite",
					g, grp.sites[0].Base, i, s.Base))
			}
		}
	}
	return nil
}

// stopGroups stops every site stack and network of the given groups.
func stopGroups(groups []*group) {
	for _, grp := range groups {
		for _, stop := range grp.stops {
			stop()
		}
		grp.hub.Close()
	}
}

// newSession creates a site's session: its router over the site's
// replica of every shard, and the same replicas attached to the
// cross-shard hub. Both re-resolve through the cluster on every use, so
// crash, restart and replacement need no re-attachment; the hub
// additionally sees no replica while the site is down.
func (c *Cluster) newSession(site int) *Session {
	locals := make([]shard.Local, c.cfg.shards)
	for g := range locals {
		local := func() (*db.Replica, *member.Tracker) {
			c.mu.RLock()
			defer c.mu.RUnlock()
			if g >= len(c.groups) || site >= len(c.groups[g].sites) {
				return nil, nil
			}
			s := c.groups[g].sites[site]
			return s.Replica, s.Tracker
		}
		locals[g] = local
		c.shub.Attach(g, func() *db.Replica {
			c.mu.RLock()
			down := !c.started || c.stopped || c.crashed[site] || c.removed[site]
			c.mu.RUnlock()
			if down {
				return nil
			}
			rep, _ := local()
			return rep
		})
	}
	return &Session{site: site, router: shard.NewRouter(c.registry, c.smap, c.coord, locals)}
}

// Stop shuts the cluster down, flushing durable state. It is idempotent.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if !c.started || c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	groups := append([]*group{}, c.groups...)
	c.mu.Unlock()
	if c.shub != nil {
		c.shub.Stop()
	}
	stopGroups(groups)
}

// Size reports the number of site slots (including crashed and removed
// sites; AddSite grows it).
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.sessions) > 0 {
		return len(c.sessions)
	}
	return c.cfg.replicas
}

// RecoveredIndex reports the definitive index a durable site resumed at
// on Start (0 for a fresh or non-durable site). With WithShards this is
// shard 0's index.
func (c *Cluster) RecoveredIndex(site int) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	grp, err := c.groupLocked(0)
	if err != nil {
		return 0, err
	}
	if _, err := c.replicaLocked(0, site); err != nil {
		return 0, err
	}
	return grp.sites[site].Base, nil
}

func (c *Cluster) groupLocked(g int) (*group, error) {
	if !c.started {
		return nil, ErrNotStarted
	}
	if g < 0 || g >= len(c.groups) {
		return nil, fmt.Errorf("%w: %d", ErrBadShard, g)
	}
	return c.groups[g], nil
}

func (c *Cluster) replica(g, site int) (*db.Replica, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.replicaLocked(g, site)
}

func (c *Cluster) replicaLocked(g, site int) (*db.Replica, error) {
	grp, err := c.groupLocked(g)
	if err != nil {
		return nil, err
	}
	if site < 0 || site >= len(grp.sites) {
		return nil, fmt.Errorf("%w: %d", ErrBadSite, site)
	}
	return grp.sites[site].Replica, nil
}

// Exec submits an update transaction at the given site and waits until it
// commits there. Committing at the submitting site implies the definitive
// order is fixed; all other sites commit the same transaction in the same
// relative order. It is a thin wrapper over the site's Session; use
// Session.Exec to also receive the typed Result.
func (c *Cluster) Exec(ctx context.Context, site int, proc string, args ...Value) error {
	sess, err := c.Session(site)
	if err != nil {
		return err
	}
	_, err = sess.Exec(ctx, proc, args...)
	return err
}

// Submit broadcasts an update transaction without waiting for its commit
// and returns its Handle, so fire-and-forget callers can still correlate
// the transaction (Handle.ID) or collect its Result later. It is a thin
// wrapper over the site's Session.
func (c *Cluster) Submit(site int, proc string, args ...Value) (*Handle, error) {
	sess, err := c.Session(site)
	if err != nil {
		return nil, err
	}
	return sess.SubmitAsync(proc, args...)
}

// QueryAt runs a read-only stored procedure locally at the given site,
// against a consistent snapshot (Section 5). It is a thin wrapper over
// the site's Session.
func (c *Cluster) QueryAt(ctx context.Context, site int, proc string, args ...Value) (Value, error) {
	sess, err := c.Session(site)
	if err != nil {
		return nil, err
	}
	return sess.Query(ctx, proc, args...)
}

// Read returns the latest committed value of a key at a site, outside any
// snapshot (a debugging convenience, not a transaction). The read is
// served by the shard owning the class. The returned Value aliases the
// committed version and must not be modified.
func (c *Cluster) Read(site int, class Class, key Key) (Value, bool, error) {
	rep, err := c.replica(c.smap.Locate(class), site)
	if err != nil {
		return nil, false, err
	}
	v, ok := rep.Store().Get(storage.Partition(class), key)
	return v, ok, nil
}

// Stats aggregates per-site protocol counters.
type Stats struct {
	// Site is the replica index.
	Site int
	// Commits, Aborts, Reorders mirror the OTP manager counters,
	// summed over the site's shard replicas.
	Commits, Aborts, Reorders uint64
	// Pending is the number of delivered but uncommitted transactions.
	Pending int
}

// SiteStats returns one site's counters, aggregated over its shards.
func (c *Cluster) SiteStats(site int) (Stats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := Stats{Site: site}
	for g := range c.groups {
		rep, err := c.replicaLocked(g, site)
		if err != nil {
			return Stats{}, err
		}
		st := rep.Manager().Stats()
		out.Commits += st.Commits
		out.Aborts += st.Aborts
		out.Reorders += st.Reorders
		out.Pending += rep.Manager().Pending()
	}
	return out, nil
}

// WaitForCommits blocks until every live replica has committed at least n
// update transactions and has none pending, or the context is cancelled.
// Crashed sites are skipped. With WithShards the threshold applies to
// each site's commits summed across shards.
func (c *Cluster) WaitForCommits(ctx context.Context, n int) error {
	c.mu.RLock()
	if !c.started {
		c.mu.RUnlock()
		return ErrNotStarted
	}
	if len(c.groups) == 1 {
		var live []*db.Replica
		for i, s := range c.groups[0].sites {
			if !c.crashed[i] && !c.removed[i] {
				live = append(live, s.Replica)
			}
		}
		c.mu.RUnlock()
		for _, rep := range live {
			if err := rep.WaitCommits(ctx, n); err != nil {
				return err
			}
		}
		return nil
	}
	// Sharded: poll each live site's definitive indexes summed across
	// groups (at quiescence every TO delivery has committed exactly
	// once, so sum(LastTO) counts commits including recovered bases),
	// failing with db.ErrStopped once the cluster stops, as a replica's
	// WaitCommits does.
	type siteReps struct{ reps []*db.Replica }
	var sites []siteReps
	for i := range c.groups[0].sites {
		if c.crashed[i] || c.removed[i] {
			continue
		}
		var sr siteReps
		for g := range c.groups {
			sr.reps = append(sr.reps, c.groups[g].sites[i].Replica)
		}
		sites = append(sites, sr)
	}
	c.mu.RUnlock()
	for _, sr := range sites {
		for {
			c.mu.RLock()
			stopped := c.stopped
			c.mu.RUnlock()
			if stopped {
				return db.ErrStopped
			}
			var total int64
			pending := 0
			for _, rep := range sr.reps {
				total += rep.LastTO()
				pending += rep.Manager().Pending()
			}
			if total >= int64(n) && pending == 0 {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// Converged reports whether all live replicas currently hold identical
// committed state, shard by shard. Crashed sites are skipped.
func (c *Cluster) Converged() (bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.started {
		return false, ErrNotStarted
	}
	for _, grp := range c.groups {
		first := -1
		for i, s := range grp.sites {
			if c.crashed[i] || c.removed[i] {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			if s.Replica.Store().Digest() != grp.sites[first].Replica.Store().Digest() {
				return false, nil
			}
		}
	}
	return true, nil
}

// CrashSite silences a site at the network level — every shard replica
// it hosts — modelling a crash-stop failure (Section 2: sites fail by
// crashing). The cluster keeps committing as long as a majority of sites
// remains alive.
func (c *Cluster) CrashSite(site int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.replicaLocked(0, site); err != nil {
		return err
	}
	if c.removed[site] {
		return fmt.Errorf("otpdb: site %d was removed from the group", site)
	}
	if c.crashed == nil {
		c.crashed = make(map[int]bool)
	}
	c.crashed[site] = true
	for _, grp := range c.groups {
		grp.hub.Crash(transport.NodeID(site))
	}
	return nil
}

// RestartSite brings a crashed site back into the running cluster — the
// live-rejoin half of the durability story (the paper's Section 3.2
// defers both to "traditional recovery techniques"). Every shard replica
// the site hosts goes through the site lifecycle a TCP otpd goes through
// (internal/site), over the in-process transport: it recovers whatever
// its durability directory holds, advertises that index to the live
// sites, installs the tail or the checkpoint plus tail a donor answers
// with, and re-enters consensus at the current stage.
//
// The restarted site then executes and commits new transactions in
// agreement with the survivors. With durability enabled a transferred
// checkpoint resets the local data directory, so a later cold restart
// recovers from local state again; a tail-only rejoin keeps the local
// log and continues appending above it.
//
// RestartSite requires at least one live site.
// Sessions bound to the site transparently observe the new replicas;
// waiters pending from before the crash fail with ErrStopped.
func (c *Cluster) RestartSite(ctx context.Context, site int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.replicaLocked(0, site); err != nil {
		return err
	}
	if c.removed[site] {
		return fmt.Errorf("otpdb: site %d was removed from the group (use AddSite or ReplaceSite)", site)
	}
	if !c.crashed[site] {
		return fmt.Errorf("otpdb: site %d is not crashed", site)
	}
	return c.rejoinLocked(ctx, site, false)
}

// rejoinLocked rebuilds a crashed site's stack — one join per shard
// group — through statex transfers from live donors. With wipe set the
// site's previous durable state is discarded first (the ReplaceSite
// semantics, where the returning identity is a fresh machine). A partial
// failure leaves the site crashed: every group's endpoint is re-downed,
// so a retry starts from a clean state. Callers hold c.mu and have
// validated the site.
func (c *Cluster) rejoinLocked(ctx context.Context, site int, wipe bool) error {
	for g := range c.groups {
		if err := c.joinGroupLocked(ctx, g, site, wipe); err != nil {
			for _, grp := range c.groups {
				grp.hub.Crash(transport.NodeID(site))
			}
			return fmt.Errorf("otpdb: shard %d: %w", g, err)
		}
	}
	delete(c.crashed, site)
	return nil
}

// joinGroupLocked brings one site of one group into the running group
// from the live sites' state: a crashed site's slot is rebuilt (its dead
// stack stopped, its endpoint revived), the slot after the last is a
// newly admitted site's. On failure the endpoint is down again, so
// peers do not flood a mailbox nobody drains and a retry starts clean.
func (c *Cluster) joinGroupLocked(ctx context.Context, g, site int, wipe bool) error {
	grp, id := c.groups[g], transport.NodeID(site)
	var donors []transport.NodeID
	for i := range grp.sites {
		if !c.crashed[i] && !c.removed[i] && i != site {
			donors = append(donors, transport.NodeID(i))
		}
	}
	if len(donors) == 0 {
		return errors.New("otpdb: no live peer to join from")
	}
	rebuild := site < len(grp.sites)
	var ep transport.Endpoint
	switch {
	case rebuild:
		grp.stops[site]()
		grp.stops[site] = func() {} // stopped: a failed join leaves nothing to stop twice
		if grp.recorder != nil {
			grp.recorder.Rebuilt(id)
		}
		ep = grp.hub.Restart(id)
	case grp.hub.Len() > site:
		// A resumed AddSite already grew the hub; revive that node
		// instead of appending a second one.
		ep = grp.hub.Restart(id)
	default:
		ep = grp.hub.Add()
	}
	if wipe && c.cfg.durDir != "" {
		// The replacement is a new machine: the dead incarnation's
		// durable history does not come with it.
		if err := os.RemoveAll(c.siteDir(g, site)); err != nil {
			grp.hub.Crash(id)
			return fmt.Errorf("otpdb: wipe durability %d: %w", site, err)
		}
	}
	s, stop, err := c.startSite(ctx, grp, g, site, ep, donors)
	switch {
	case err != nil:
		grp.hub.Crash(id)
		return err
	case rebuild:
		grp.sites[site], grp.stops[site] = s, stop
	default:
		grp.sites = append(grp.sites, s)
		grp.stops = append(grp.stops, stop)
	}
	return nil
}

// RejoinMode reports how a site last rejoined the cluster: "tail-only",
// "checkpoint+tail", or "" when the site never went through RestartSite.
// With WithShards this is shard 0's mode (shards negotiate
// independently).
func (c *Cluster) RejoinMode(site int) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.replicaLocked(0, site); err != nil {
		return "", err
	}
	if mode := c.groups[0].sites[site].Join.Mode; mode != 0 {
		return mode.String(), nil
	}
	return "", nil
}

// liveSiteLocked returns the index of a live (not crashed, not removed)
// site, preferring sites other than avoid. Callers hold c.mu (read or
// write).
func (c *Cluster) liveSiteLocked(avoid int) (int, error) {
	fallback := -1
	for i := range c.groups[0].sites {
		if c.crashed[i] || c.removed[i] {
			continue
		}
		if i != avoid {
			return i, nil
		}
		fallback = i
	}
	if fallback >= 0 {
		return fallback, nil
	}
	return 0, errors.New("otpdb: no live site")
}

// memberRouter returns the router of the site a membership change is
// submitted at (see shard.Router.ProposeMember): the change is an
// ordinary transaction of each group's definitive order, its commit is
// the epoch switch at every site, and the in-process transport follows
// automatically (the hub routes by identifier).
func (c *Cluster) memberRouter(submitter int) (*shard.Router, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.started || c.stopped {
		return nil, ErrNotStarted
	}
	return c.sessions[submitter].router, nil
}

// proposeChange commits a membership change through one shard group.
func (c *Cluster) proposeChange(ctx context.Context, g, submitter int,
	mutate func(int, member.Config) (member.Config, error)) (member.Config, error) {
	rt, err := c.memberRouter(submitter)
	if err != nil {
		return member.Config{}, err
	}
	proposed, _, err := rt.ProposeMemberIn(ctx, g, mutate)
	return proposed, err
}

// proposeEverywhere commits a site-level membership change: through every
// shard group in turn.
func (c *Cluster) proposeEverywhere(ctx context.Context, submitter int,
	mutate func(int, member.Config) (member.Config, error)) error {
	rt, err := c.memberRouter(submitter)
	if err == nil {
		_, _, err = rt.ProposeMember(ctx, mutate)
	}
	return err
}

// errAddRaced reports a concurrent AddSite; no rollback is attempted
// (the committed addition belongs to the other caller).
var errAddRaced = errors.New("otpdb: concurrent AddSite raced")

// AddSite grows the group by one site: in each shard group in turn, the
// addition is committed as a definitively-ordered configuration change
// (every replica switches to the bigger quorum at the same commit), then
// the new site's replica is built, statex-joins from a live donor at the
// new configuration's base index, and activates. It returns the new
// site's index; sessions, queries and all Cluster methods accept it
// immediately.
//
// If a change commits but the site fails to come up (donor gone, ctx
// expired), AddSite rolls the committed additions back — best effort —
// so no grown quorum counts a site that does not exist; whether or not
// the rollback lands, calling AddSite again detects committed-but-
// unbuilt members and resumes them instead of proposing duplicates.
func (c *Cluster) AddSite(ctx context.Context) (int, error) {
	c.mu.RLock()
	if !c.started || c.stopped {
		c.mu.RUnlock()
		return 0, ErrNotStarted
	}
	newID := len(c.sessions)
	submitter, err := c.liveSiteLocked(-1)
	c.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	built := 0
	for g := 0; g < c.cfg.shards; g++ {
		c.mu.RLock()
		resuming := c.groups[g].sites[submitter].Tracker.Config().Has(transport.NodeID(newID))
		c.mu.RUnlock()
		if !resuming {
			if _, err = c.proposeChange(ctx, g, submitter, func(_ int, cfg member.Config) (member.Config, error) {
				return cfg.WithAdd(member.Site{ID: transport.NodeID(newID)})
			}); err != nil {
				break
			}
		}
		if err = c.buildAddedSite(ctx, g, newID); err != nil {
			if errors.Is(err, errAddRaced) {
				return 0, err
			}
			// This group's addition is committed but the replica never
			// came up: vote the phantom back out (detached context — ctx
			// may be what failed). The rollback below also covers the
			// groups already built.
			break
		}
		built++
	}
	if err != nil {
		rbCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var rbErrs []error
		for g := 0; g < c.cfg.shards; g++ {
			c.mu.RLock()
			committed := g < len(c.groups) && c.groups[g].sites[submitter].Tracker.Config().Has(transport.NodeID(newID))
			c.mu.RUnlock()
			if !committed {
				continue
			}
			if g < built {
				// Tear the already-built replica down before removing it.
				c.mu.Lock()
				grp := c.groups[g]
				if len(grp.sites) == newID+1 {
					grp.stops[newID]()
					grp.hub.Crash(transport.NodeID(newID))
					grp.sites = grp.sites[:newID]
					grp.stops = grp.stops[:newID]
				}
				c.mu.Unlock()
			}
			if _, rerr := c.proposeChange(rbCtx, g, submitter, func(_ int, cfg member.Config) (member.Config, error) {
				return cfg.WithRemove(transport.NodeID(newID))
			}); rerr != nil {
				rbErrs = append(rbErrs, fmt.Errorf("shard %d: %w", g, rerr))
			}
		}
		if len(rbErrs) > 0 {
			return 0, fmt.Errorf("%w (rollback of committed additions also failed: %v; retry AddSite to resume)", err, rbErrs)
		}
		return 0, err
	}
	sess := c.newSession(newID)
	c.mu.Lock()
	c.sessions = append(c.sessions, sess)
	c.mu.Unlock()
	return newID, nil
}

// buildAddedSite builds and activates the replica the committed addition
// admitted to one shard group.
func (c *Cluster) buildAddedSite(ctx context.Context, g, newID int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.groups[g].sites) != newID {
		return fmt.Errorf("%w: site table moved past %d", errAddRaced, newID)
	}
	return c.joinGroupLocked(ctx, g, newID, false)
}

// RemoveSite shrinks the group: the removal is committed as a
// definitively-ordered configuration change in every shard group —
// survivors drop to the smaller quorum and stop counting the ghost —
// and the removed site's stacks are then stopped. The site index stays
// allocated (sessions bound to it fail with ErrStopped); the identifier
// can return to the group only through ReplaceSite-style re-admission
// semantics, not RestartSite.
func (c *Cluster) RemoveSite(ctx context.Context, site int) error {
	c.mu.RLock()
	if _, err := c.replicaLocked(0, site); err != nil {
		c.mu.RUnlock()
		return err
	}
	if c.removed[site] {
		c.mu.RUnlock()
		return fmt.Errorf("otpdb: site %d already removed", site)
	}
	submitter, err := c.liveSiteLocked(site)
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := c.proposeEverywhere(ctx, submitter, func(_ int, cfg member.Config) (member.Config, error) {
		return cfg.WithRemove(transport.NodeID(site))
	}); err != nil {
		return fmt.Errorf("otpdb: removal: %w", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.removed[site] {
		return nil
	}
	for _, grp := range c.groups {
		if !c.crashed[site] {
			grp.stops[site]()
		}
		grp.hub.Crash(transport.NodeID(site))
	}
	if c.removed == nil {
		c.removed = make(map[int]bool)
	}
	c.removed[site] = true
	delete(c.crashed, site)
	return nil
}

// ReplaceSite re-admits a crashed site's identifier as a fresh process —
// remove + add in one epoch, the "permanently dead machine replaced by a
// new one" operation. The change is committed through every shard
// group's definitive order first (survivors switch epochs and reset the
// identity's failure suspicion), then the replacement is built from
// nothing: its previous durable state, if any, is wiped, and it
// statex-joins from live donors exactly as AddSite's fresh site does.
// Requires the site to be crashed (crash it first; replacing a live site
// is a programming error).
func (c *Cluster) ReplaceSite(ctx context.Context, site int) error {
	c.mu.RLock()
	if _, err := c.replicaLocked(0, site); err != nil {
		c.mu.RUnlock()
		return err
	}
	switch {
	case c.removed[site]:
		c.mu.RUnlock()
		return fmt.Errorf("otpdb: site %d was removed from the group", site)
	case !c.crashed[site]:
		c.mu.RUnlock()
		return fmt.Errorf("otpdb: site %d is not crashed; ReplaceSite re-admits dead sites", site)
	}
	submitter, err := c.liveSiteLocked(site)
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := c.proposeEverywhere(ctx, submitter, func(_ int, cfg member.Config) (member.Config, error) {
		return cfg.WithReplace(transport.NodeID(site), "")
	}); err != nil {
		return fmt.Errorf("otpdb: replacement: %w", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.crashed[site] || c.removed[site] {
		return fmt.Errorf("otpdb: site %d changed state during ReplaceSite", site)
	}
	return c.rejoinLocked(ctx, site, true)
}

// Epoch reports the membership epoch a site currently runs under (shard
// 0's; site-level membership operations move all shards together, but a
// concurrent change is visible in some shards first).
func (c *Cluster) Epoch(site int) (uint64, error) {
	return c.ShardEpoch(site, 0)
}

// ShardEpoch reports the membership epoch of one shard at one site.
func (c *Cluster) ShardEpoch(site, shardID int) (uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.replicaLocked(shardID, site); err != nil {
		return 0, err
	}
	return c.groups[shardID].sites[site].Tracker.Epoch(), nil
}

// Members reports the group membership as a site currently sees it
// (shard 0's view), in ascending site order.
func (c *Cluster) Members(site int) ([]int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.replicaLocked(0, site); err != nil {
		return nil, err
	}
	ids := c.groups[0].sites[site].Tracker.Members()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out, nil
}

// DigestAt returns a hash of a site's committed state — all shards
// combined in shard order — for convergence comparisons across sites.
func (c *Cluster) DigestAt(site int) (uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h := fnv.New64a()
	var buf [8]byte
	for g := range c.groups {
		rep, err := c.replicaLocked(g, site)
		if err != nil {
			return 0, err
		}
		d := rep.Store().Digest()
		for i := 0; i < 8; i++ {
			buf[i] = byte(d >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	return h.Sum64(), nil
}

// DumpEngine returns a debug snapshot of a site's OPT-ABcast ordering
// state (one line per shard): current stage, next decision to process,
// and any wedged definitive queue. Diagnostics only — the format is not
// stable.
func (c *Cluster) DumpEngine(site int) (string, error) {
	c.mu.RLock()
	engines := make([]*abcast.Optimistic, 0, len(c.groups))
	for g := range c.groups {
		if _, err := c.replicaLocked(g, site); err != nil {
			c.mu.RUnlock()
			return "", err
		}
		engines = append(engines, c.groups[g].sites[site].Engine)
	}
	c.mu.RUnlock()
	var b strings.Builder
	for g, eng := range engines {
		if g > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "shard %d: %s", g, eng.Dump())
	}
	return b.String(), nil
}

// ShardDigest returns a hash of one shard's committed state at a site.
func (c *Cluster) ShardDigest(site, shardID int) (uint64, error) {
	rep, err := c.replica(shardID, site)
	if err != nil {
		return 0, err
	}
	return rep.Store().Digest(), nil
}

// CheckHistory verifies 1-copy-serializability of everything executed so
// far, shard by shard (cross-shard atomicity is enforced by the
// two-phase protocol; each shard's history checker sees the cross
// transaction as that shard's prepare). It requires
// WithHistoryRecording.
func (c *Cluster) CheckHistory() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.cfg.recordHist {
		return errors.New("otpdb: history recording not enabled (use WithHistoryRecording)")
	}
	for g, grp := range c.groups {
		if err := grp.recorder.Check(); err != nil {
			return fmt.Errorf("shard %d: %w", g, err)
		}
	}
	return nil
}

// CheckInvariants validates the OTP scheduler invariants at every shard
// replica of every site.
func (c *Cluster) CheckInvariants() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.started {
		return ErrNotStarted
	}
	for g, grp := range c.groups {
		for i, s := range grp.sites {
			if err := s.Replica.Manager().CheckInvariants(); err != nil {
				return fmt.Errorf("shard %d site %d: %w", g, i, err)
			}
		}
	}
	return nil
}

// compile-time checks that re-exported internals stay assignable.
var (
	_ = otp.ClassID("")
	_ = abcast.MsgID{}
)
