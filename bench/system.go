package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"otpdb"
	"otpdb/internal/db"
	"otpdb/internal/storage"
	"otpdb/internal/wal"
)

const sites = 3

// clientSpec is one closed-loop update client: it keeps depth transactions
// in flight at one site and submits the next only when the oldest is
// acknowledged.
type clientSpec struct{ site, depth int }

// workload is one row of the benchmark: a client mix and the stack it runs
// against. Names are fixed; BENCHMARK.json and bench/README.md say why each
// exists.
type workload struct {
	name          string
	clients       []clientSpec
	queryRate     int           // open-loop scans per second at site 1; 0 = none
	delay, jitter time.Duration // memnet message delay: delay + U[0, jitter)
	tcp           bool          // hand-assembled stack over tcpnet loopback instead of the facade
	// wal makes the replicas append every commit to a write-ahead log before
	// acknowledging it, and ends the run with a stop and reopen. Flushing is
	// left to the operating system (walSync).
	wal bool
	// procs caps GOMAXPROCS for this workload; 0 = the process's
	// (min(nproc, 4)).
	procs int
}

// walSync is the log's flush policy: no fsync per commit. On this sandbox's
// virtual disk whatever waits for one does not repeat within the widest
// bound BENCHMARK.json may state (README, "Where the workloads depart").
const walSync = wal.SyncNever

// No transaction is ever aborted on any of these: one origin site over FIFO
// links, or one transaction in flight per site. On the current tree an abort
// can leave its conflict class blocked for good at one site (README, "Known
// defect"), and a benchmark may not contain operations that fail.
var workloads = []workload{
	// lan_sync has one transaction in the system at a time, so nothing in it
	// can run in parallel; a second processor only adds hand-overs to a
	// sleeping virtual CPU, whose wake-up time is the host's and moved the
	// numbers three times as much (README, "Why lan_sync runs on one
	// processor").
	{name: "lan_sync", clients: []clientSpec{{0, 1}}, procs: 1},
	{name: "lan_saturated", clients: []clientSpec{{0, 32}}, queryRate: 1000},
	{name: "wan_jitter", clients: []clientSpec{{0, 1}, {1, 1}},
		delay: 500 * time.Microsecond, jitter: 200 * time.Microsecond},
	{name: "tcp_pipelined", clients: []clientSpec{{0, 32}}, tcp: true},
	{name: "wal_restart", clients: []clientSpec{{0, 32}}, wal: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ack is what a client learns when its transaction commits at its site.
type ack struct {
	counter int64 // the procedure's return value: the key's new counter
	// inner is submit → commit notification as seen inside the call
	// (Result.Latency on the facade, the SubmitNotify callback on the
	// stack); the wall time a client measures minus inner is what the
	// calling convention itself costs.
	inner time.Duration
}

// slot is one in-flight position of a closed-loop client, reused for
// every transaction that passes through it so the driver adds no
// per-transaction allocation beyond the payload.
type slot struct {
	o      op
	start  time.Time
	handle *otpdb.Handle // facade
	// stack: the SubmitNotify callback stamps commitAt and hands the
	// result over ch.
	ch       chan db.CommitResult
	notify   func(db.CommitResult)
	commitAt atomic.Int64
	span     *span
}

// system is the replicated database as the drivers and the correctness
// gate see it. Two implementations: the otpdb facade and the hand-assembled
// stack (stack.go).
type system interface {
	// submit starts s.o at site; wait blocks until it commits there.
	submit(site int, s *slot) error
	wait(ctx context.Context, s *slot) (ack, error)
	// exec is the synchronous call (Session.Exec / submit+wait).
	exec(ctx context.Context, site int, s *slot) (ack, error)
	// query runs scan(group) at site.
	query(ctx context.Context, site, group int) (int64, error)
	// counter reads a key's committed counter at site.
	counter(site, class, key int) (int64, error)
	digest(site int) (uint64, error)
	checkInvariants() error
	// lastIndex is the definitive index of the last commit at site.
	lastIndex(site int) (int64, error)
	// aborts counts transactions undone by the Correctness Check, all
	// sites. Every workload is built to keep it at 0.
	aborts() uint64
	stop()
}

// facade runs a workload through the public otpdb API.
type facade struct {
	c    *otpdb.Cluster
	sess [sites]*otpdb.Session
}

// facadeOptions are the cluster options of a facade workload. dir is the
// durability root (w.wal only).
func facadeOptions(w *workload, seed int64, dir string) []otpdb.Option {
	opts := []otpdb.Option{otpdb.WithReplicas(sites), otpdb.WithSeed(seed)}
	if w.delay > 0 {
		opts = append(opts, otpdb.WithNetworkDelay(w.delay))
	}
	if w.jitter > 0 {
		opts = append(opts, otpdb.WithNetworkJitter(w.jitter))
	}
	if w.wal {
		// Checkpoints are disabled so the reopen replays the whole log.
		opts = append(opts, otpdb.WithDurability(dir), otpdb.WithSyncPolicy(walSync), otpdb.WithCheckpointEvery(-1))
	}
	return opts
}

// startFacade builds, registers, seeds and starts a cluster.
func startFacade(opts []otpdb.Option) (*facade, error) {
	c, err := otpdb.NewCluster(opts...)
	if err != nil {
		return nil, err
	}
	ups, q := procedures(nil)
	for _, u := range ups {
		if err := c.RegisterUpdate(u); err != nil {
			return nil, err
		}
	}
	if err := c.RegisterQuery(q); err != nil {
		return nil, err
	}
	seed := seedValue()
	for _, class := range classNames {
		for _, key := range keyNames {
			if err := c.Seed(class, key, seed); err != nil {
				return nil, err
			}
		}
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	f := &facade{c: c}
	for i := range f.sess {
		if f.sess[i], err = c.Session(i); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *facade) submit(site int, s *slot) (err error) {
	s.handle, err = f.sess[site].SubmitAsync(procNames[s.o.class], s.o.args()...)
	return err
}

func facadeAck(r otpdb.Result) ack {
	return ack{counter: otpdb.AsInt64(r.Value), inner: r.Latency}
}

func (f *facade) wait(ctx context.Context, s *slot) (ack, error) {
	r, err := s.handle.Wait(ctx)
	return facadeAck(r), err
}

func (f *facade) exec(ctx context.Context, site int, s *slot) (ack, error) {
	r, err := f.sess[site].Exec(ctx, procNames[s.o.class], s.o.args()...)
	return facadeAck(r), err
}

func (f *facade) query(ctx context.Context, site, group int) (int64, error) {
	v, err := f.sess[site].Query(ctx, scanProc, groupArgs[group])
	return otpdb.AsInt64(v), err
}

func (f *facade) counter(site, class, key int) (int64, error) {
	v, _, err := f.c.Read(site, classNames[class], keyNames[key])
	return storage.ValueInt64(v), err
}

func (f *facade) digest(site int) (uint64, error) { return f.c.DigestAt(site) }
func (f *facade) checkInvariants() error          { return f.c.CheckInvariants() }

// lastIndex counts the site's commits: every definitive index commits
// exactly one transaction, so on a quiescent cluster they are the same
// number (seeding uses index 0).
func (f *facade) lastIndex(site int) (int64, error) {
	st, err := f.c.SiteStats(site)
	return int64(st.Commits), err
}

func (f *facade) aborts() uint64 {
	var n uint64
	for site := 0; site < sites; site++ {
		if st, err := f.c.SiteStats(site); err == nil {
			n += st.Aborts
		}
	}
	return n
}

func (f *facade) stop() { f.c.Stop() }
