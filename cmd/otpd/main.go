// Command otpd runs one replica of the replicated database over TCP — the
// multi-process deployment of the paper's architecture. Every replica
// serves a small line protocol for clients (see cmd/otpcli), the TCP
// incarnation of the in-process Session API: EXEC is Session.Exec with
// its typed result, SUBMIT/WAIT are Session.SubmitAsync plus Handle
// resolution, so clients pipeline many transactions per connection.
//
//	EXEC <procedure> [arg ...]   -> OK value=<int64> to=<idx> outcome=<fastpath|reordered|retried> latency=<dur>
//	                              | ERR <message>
//	SUBMIT <procedure> [arg ...] -> ID <origin>.<seq> | ERR <message>
//	WAIT <origin>.<seq>          -> OK ... (as EXEC) | ERR <message>
//	QUERY <procedure> [arg ...]  -> VALUE <int64> | ERR <message>
//	STATS (alias STATUS)         -> STATS commits=<n> aborts=<n> reorders=<n> pending=<n> to=<idx> recovered=<idx> epoch=<e> members=<n> role=<joining|serving|donor>
//	DIGEST                       -> DIGEST <hex>
//	SHARD LIST                   -> SHARDS n=<s> version=<v>
//	SHARD MAP <class>            -> SHARD class=<class> id=<g>
//	MEMBER ADD <id> <addr>       -> OK epoch=<e> members=<n> to=<idx> | ERR <message>
//	MEMBER REMOVE <id>           -> OK ... (as ADD)
//	MEMBER REPLACE <id> <addr>   -> OK ... (as ADD)
//	METRICS                      -> METRICS n=<count>, then one series per line
//	TRACE <id>                   -> TRACE n=<count>, then one JSON span per line
//	WATCH                        -> WATCH streaming, then one EVENT {json} line per flight-recorder event (push; ends at disconnect)
//
// SUBMIT handles are per-connection: WAIT resolves an ID submitted on the
// same connection (pipeline SUBMITs first, then WAIT each ID). STATS is
// answered in every phase of the replica's life: role=joining while a
// state transfer is catching the replica up (to/recovered report the
// locally recovered index), serving once it processes transactions, and
// donor while it streams state to another joiner. Commands that need the
// replica (EXEC, QUERY, ...) wait for it to come up.
//
// The demo schema partitions an integer keyspace into -classes conflict
// classes with procedures add-p<i>(key, delta) — returning the key's new
// value — the cross-class query get(p<i>, key), and the two-class
// transfer xfer(srckey, dstkey, amt) moving value from p0 to p1.
//
// # Sharding
//
// With -shards S the conflict classes are partitioned across S
// independent replica groups hosted by the same processes: class p<i>
// lives on shard i mod S, and shard g's replication mesh listens on each
// peer's port + g (keep S consecutive ports free per replica; -peers
// names shard 0's addresses). Transactions route transparently: EXEC and
// SUBMIT of a procedure whose classes live in one shard run the paper's
// protocol unchanged inside that shard's group, while a procedure
// spanning shards (such as xfer when S > 1) is ordered definitively in
// every touched shard by an optimistic two-phase protocol that commits
// everywhere or nowhere. STATS then reports a shards=<S> summary line
// followed by one SHARD id=<g> line per shard, and DIGEST prints one
// digest per shard.
//
// With -data the replica is durable: definitive commits are written
// ahead to a segmented CRC-framed log (fsync policy -fsync
// commit|group|off) with periodic checkpoints (one directory per shard
// under -data when -shards > 1), the WAL is flushed and closed on
// SIGINT/SIGTERM, and a restarted process — even after kill -9 —
// recovers its committed state and resumes at the recovered definitive
// index. The process's failure-detector incarnation is persisted under
// -data too, so a clock stepping backwards across a crash cannot make a
// restarted replica look older than its dead self.
//
// A durable replica that recovered committed state automatically rejoins
// a running cluster through the statex state-transfer service: it
// advertises its recovered index to a live peer (unsuspected peers
// first, failing over down the list) and receives either the definitive
// backlog it missed or, when the peers' retained history no longer
// covers the gap, a full checkpoint plus the tail — then re-enters
// consensus at the current stage. -join forces the same path for a
// replica with no usable local state. When no peer answers (for
// instance, a whole-cluster restart where every process comes up at
// once), the replica falls back to a cold start from local state alone.
// With -shards every shard group negotiates its own transfer.
//
// The group membership is dynamic: the configuration (an epoch plus the
// member list) is itself replicated state, seeded from -peers at epoch 1
// and changed through definitively-ordered MEMBER commands. Every
// replica switches its quorum, its failure-detector targets and its TCP
// peer links at the commit of the change. A permanently dead site is
// replaced without a whole-cluster restart: MEMBER REPLACE <id> <addr>
// on a survivor, then start a fresh process with that id, the updated
// -peers list and -join — it state-transfers from a donor and activates.
// A removed site keeps its process alive but is out of the group; stop
// it once MEMBER REMOVE returns. With -shards a MEMBER command commits
// the change in every shard group (shard g at the given address's port
// + g).
//
// # Observability
//
// Every layer of the replica registers runtime telemetry — reorder rate,
// opt→definitive latency, consensus rounds and decision latency, WAL
// fsync latency, state-transfer volume, failure-detector suspicions,
// cross-shard vote latency — in an in-process metrics registry (see
// internal/metrics and DESIGN.md §12). -http serves it at /metrics in
// the Prometheus text format, alongside net/http/pprof under
// /debug/pprof, and at /cluster/metrics as a federated scrape: every
// live member's series site-labelled plus agg=sum/max/merge rollups,
// membership-aware and epoch-fenced (an evicted member's series
// disappear within one scrape). The METRICS verb dumps the local
// registry over the client protocol (one series per line; histograms as
// count/p50/p95/p99). TRACE <id> returns a transaction's lifecycle
// spans (submit/opt-deliver/to-deliver/commit/abort, plus
// prepare/vote/decide for cross-shard transactions) as JSON, one per
// line — stitched cluster-wide from every member's span ring through
// the obs fan-out, falling back to the local ring; a cross-shard EXEC
// reply carries trace=<id> to feed back in. WATCH streams the flight
// recorder (internal/events): epoch changes, suspicions, replacement
// rounds and state-transfer negotiations as EVENT {json} lines, ring
// replay then live tail. STATS reads its scheduler counters out of the
// same registry, so the two surfaces cannot drift (see DESIGN.md §13
// for the trace wire format and fencing rules).
//
// Example 3-replica cluster on one machine:
//
//	otpd -id 0 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 -client :7070 -data data/0 &
//	otpd -id 1 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 -client :7071 -data data/1 &
//	otpd -id 2 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 -client :7072 -data data/2 &
//	otpcli -addr :7070 EXEC add-p0 mykey 5
//	otpcli -addr :7071 QUERY get p0 mykey
//	kill -9 <pid of replica 2>; otpd -id 2 ... -data data/2 &   # rejoins live
//	# replica 2's machine died for good: replace it at a new address
//	otpcli -addr :7070 MEMBER REPLACE 2 127.0.0.1:9005
//	otpd -id 2 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9005 -client :7072 -data data2b/2 -join &
//	otpcli -addr :7072 STATUS
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/events"
	"otpdb/internal/fd"
	"otpdb/internal/member"
	"otpdb/internal/metrics"
	"otpdb/internal/obs"
	"otpdb/internal/shard"
	"otpdb/internal/site"
	"otpdb/internal/sproc"
	"otpdb/internal/statex"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
	"otpdb/internal/wal"
)

func main() {
	var (
		id      = flag.Int("id", 0, "replica id (index into -peers)")
		peers   = flag.String("peers", "", "comma-separated replica addresses for shard 0, index = id")
		client  = flag.String("client", ":7070", "client listen address")
		classes = flag.Int("classes", 8, "number of conflict classes")
		shards  = flag.Int("shards", 1, "number of shard groups (shard g uses peer port + g)")
		dataDir = flag.String("data", "", "durability directory (empty = in-memory only)")
		fsync   = flag.String("fsync", "group", "WAL fsync policy: commit|group|off (with -data)")
		join    = flag.Bool("join", false, "force a state transfer from a live peer before serving")
		httpOn  = flag.String("http", "", "observability listen address serving /metrics and /debug/pprof (empty = disabled)")
	)
	flag.Parse()
	if err := run(*id, *peers, *client, *classes, *shards, *dataDir, *fsync, *join, *httpOn); err != nil {
		fmt.Fprintln(os.Stderr, "otpd:", err)
		os.Exit(1)
	}
}

// demoRegistry builds the keyspace schema: add-p<i>(key, delta) per
// class — returning the key's new value — plus the get(class, key) query
// and, with at least two classes, the two-class transfer
// xfer(srckey, dstkey, amt).
func demoRegistry(classes int) (*sproc.Registry, error) {
	reg := sproc.NewRegistry()
	for c := 0; c < classes; c++ {
		class := sproc.ClassID(fmt.Sprintf("p%d", c))
		err := reg.RegisterUpdate(sproc.Update{
			Name:  "add-" + string(class),
			Class: class,
			Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
				args := ctx.Args()
				if len(args) < 2 {
					return nil, fmt.Errorf("add needs key and delta")
				}
				key := storage.Key(storage.ValueString(args[0]))
				delta := storage.ValueInt64(args[1])
				cur, _ := ctx.Read(key)
				next := storage.Int64Value(storage.ValueInt64(cur) + delta)
				return next, ctx.Write(key, next)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	if classes >= 2 {
		// xfer spans p0 and p1 — with -shards > 1 those are different
		// groups and the transaction exercises the cross-shard protocol.
		err := reg.RegisterMulti(sproc.MultiUpdate{
			Name:    "xfer",
			Classes: []sproc.ClassID{"p0", "p1"},
			Fn: func(ctx sproc.MultiUpdateCtx) (storage.Value, error) {
				args := ctx.Args()
				if len(args) < 3 {
					return nil, fmt.Errorf("xfer needs srckey, dstkey and amount")
				}
				src := storage.Key(storage.ValueString(args[0]))
				dst := storage.Key(storage.ValueString(args[1]))
				amt := storage.ValueInt64(args[2])
				sv, _ := ctx.Read("p0", src)
				dv, _ := ctx.Read("p1", dst)
				next := storage.Int64Value(storage.ValueInt64(sv) - amt)
				if err := ctx.Write("p0", src, next); err != nil {
					return nil, err
				}
				if err := ctx.Write("p1", dst, storage.Int64Value(storage.ValueInt64(dv)+amt)); err != nil {
					return nil, err
				}
				return next, nil
			},
		})
		if err != nil {
			return nil, err
		}
	}
	if err := reg.RegisterQuery(sproc.Query{
		Name: "get",
		Fn: func(ctx sproc.QueryCtx) (storage.Value, error) {
			args := ctx.Args()
			if len(args) < 2 {
				return nil, fmt.Errorf("get needs class and key")
			}
			class := sproc.ClassID(storage.ValueString(args[0]))
			v, _ := ctx.Read(class, storage.Key(storage.ValueString(args[1])))
			return v, nil
		},
	}); err != nil {
		return nil, err
	}
	// Group membership rides the same machinery as user transactions.
	if err := member.RegisterProc(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// shardStack is one shard group's per-process state. The replica appears
// only once recovery and any state transfer finish; STATS answers in
// every phase so operators (and tests) can watch a joiner catch up.
type shardStack struct {
	rep     atomic.Pointer[db.Replica]
	site    atomic.Pointer[site.Site] // the stack behind rep: its donor service tells the role
	tracker atomic.Pointer[member.Tracker]
	base    atomic.Int64 // locally recovered (then transferred) definitive index
}

// server is the process state the client protocol serves from.
type server struct {
	shards  []*shardStack
	reg     *sproc.Registry
	smap    *shard.Map
	coord   *shard.Coordinator
	metrics *metrics.Registry
	trace   *metrics.TraceRing
	events  *events.Recorder
	station atomic.Pointer[obs.Station] // cluster-wide trace/metrics fan-out; published by shard 0's build
	ready   chan struct{}               // closed when every shard's replica is published
}

// membership renders the epoch/size STATS fields of one shard ("0 0"
// while joining).
func (s *shardStack) membership() (uint64, int) {
	tr := s.tracker.Load()
	if tr == nil {
		return 0, 0
	}
	cfg := tr.Config()
	return cfg.Epoch, len(cfg.Members)
}

// waitReady blocks until every shard's replica is up (recovery and state
// transfer done) or the timeout expires; it returns shard 0's replica or
// nil.
func (s *server) waitReady(d time.Duration) *db.Replica {
	select {
	case <-s.ready:
		return s.shards[0].rep.Load()
	case <-time.After(d):
		return nil
	}
}

// role reports the process's current life-cycle phase.
func (s *server) role() string {
	select {
	case <-s.ready:
	default:
		return "joining"
	}
	for _, st := range s.shards {
		if st.role() == "donor" {
			return "donor"
		}
	}
	return "serving"
}

// shardRole is the per-shard role line ("joining" before the shard's
// replica exists, even if other shards are already up).
func (s *shardStack) role() string {
	if s.rep.Load() == nil {
		return "joining"
	}
	if st := s.site.Load(); st != nil && st.Serving() > 0 {
		return "donor"
	}
	return "serving"
}

// shiftAddr rebases a host:port address to port + delta — shard g's mesh
// listens next to shard 0's.
func shiftAddr(addr string, delta int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("address %q: %w", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("address %q: bad port: %w", addr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+delta)), nil
}

func run(id int, peerList, clientAddr string, classes, shards int, dataDir, fsync string, forceJoin bool, httpAddr string) error {
	if peerList == "" {
		return fmt.Errorf("-peers is required")
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be positive, got %d", shards)
	}
	parts := strings.Split(peerList, ",")
	if id < 0 || id >= len(parts) {
		return fmt.Errorf("-id %d out of range for %d peers", id, len(parts))
	}
	if forceJoin && len(parts) < 2 {
		return fmt.Errorf("-join needs at least one peer to join from")
	}

	// Wire registration: every message type the TCP transport carries.
	fd.RegisterWire()
	consensus.RegisterWire()
	abcast.RegisterWire()
	db.RegisterWire()
	statex.RegisterWire()
	obs.RegisterWire()

	reg, err := demoRegistry(classes)
	if err != nil {
		return err
	}

	// The shard map is pure convention — every process derives the same
	// one from -classes and -shards: class p<i> pinned to shard i mod S.
	smap, err := shard.NewMap(shards)
	if err != nil {
		return err
	}
	for c := 0; c < classes; c++ {
		if err := smap.Pin(sproc.ClassID(fmt.Sprintf("p%d", c)), c%shards); err != nil {
			return err
		}
	}

	// The failure-detector/transport incarnation must grow monotonically
	// across restarts of a durable replica; persist it under -data so a
	// clock stepping backwards over a crash cannot mint an older-looking
	// incarnation (in-memory replicas fall back to the clock).
	var inc uint64
	if dataDir != "" {
		inc, err = transport.PersistentIncarnation(dataDir)
		if err != nil {
			return fmt.Errorf("incarnation: %w", err)
		}
	}

	srv := &server{
		reg: reg, smap: smap, ready: make(chan struct{}),
		metrics: metrics.NewRegistry(),
		trace:   metrics.NewTraceRing(4096),
		events:  events.NewRecorder(4096),
	}
	for g := 0; g < shards; g++ {
		srv.shards = append(srv.shards, &shardStack{})
	}
	siteScope := srv.metrics.Scope("site", strconv.Itoa(id))
	shub := shard.NewHub(shard.Config{Origin: transport.NodeID(id), Incarnation: inc, Metrics: siteScope})
	if err := shub.Register(reg); err != nil {
		return err
	}
	for g := 0; g < shards; g++ {
		st := srv.shards[g]
		shub.Attach(g, id, func() *db.Replica { return st.rep.Load() })
	}
	srv.coord = shard.NewCoordinator(shub, smap, reg, shard.CoordConfig{Metrics: siteScope, Trace: srv.trace})

	// The observability endpoint comes up first: /metrics (Prometheus
	// text format) and /debug/pprof answer through recovery, join and
	// serving alike. pprof registers on the default mux at import.
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = metrics.WriteProm(w, srv.metrics)
		})
		// /cluster/metrics federates every live member's registry into one
		// scrape: each member's series site-labelled plus agg rollups. The
		// scrape is membership-aware (only current members are queried) and
		// epoch-fenced (replies from an older membership epoch are dropped),
		// so an evicted member's series disappear within one scrape.
		mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, req *http.Request) {
			station := srv.station.Load()
			tr := srv.shards[0].tracker.Load()
			if station == nil || tr == nil {
				http.Error(w, "replica still joining", http.StatusServiceUnavailable)
				return
			}
			ctx, cancel := context.WithTimeout(req.Context(), 5*time.Second)
			defer cancel()
			samples := station.Metrics(ctx, tr.Members())
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = metrics.WritePromSamples(w, samples)
		})
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		hln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return fmt.Errorf("http listen: %w", err)
		}
		hsrv := &http.Server{Handler: mux}
		go func() { _ = hsrv.Serve(hln) }()
		defer func() { _ = hsrv.Close() }()
		fmt.Printf("otpd: replica %d observability on http://%s/metrics\n", id, hln.Addr())
	}

	// The client listener comes up before the replicas so STATS can
	// report the joining phase; commands that need a replica wait.
	ln, err := net.Listen("tcp", clientAddr)
	if err != nil {
		return fmt.Errorf("client listen: %w", err)
	}
	defer func() { _ = ln.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		cancel()
		_ = ln.Close()
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-ctx.Done():
					return // shutting down
				default:
				}
				// Transient failure (e.g. fd exhaustion): keep the
				// replica's client port alive rather than silently
				// refusing all future connections.
				time.Sleep(50 * time.Millisecond)
				continue
			}
			go serveClient(conn, srv)
		}
	}()

	// Build every shard group's stack in shard order.
	for g := 0; g < shards; g++ {
		stopShard, err := buildShard(ctx, srv, g, id, parts, shards, dataDir, fsync, forceJoin, inc)
		if err != nil {
			return fmt.Errorf("shard %d: %w", g, err)
		}
		defer stopShard()
	}
	shub.Start()
	defer shub.Stop()
	close(srv.ready)
	fmt.Printf("otpd: replica %d up — peers %s, %d shard(s), clients on %s\n", id, peerList, shards, ln.Addr())

	<-ctx.Done()
	return nil
}

// buildShard brings one shard group's replica up and publishes it in
// srv.shards[g]. The stack itself — recovery, state transfer, consensus,
// broadcast, replica, donor service — is the shared site builder's; this
// function owns what is the daemon's: the TCP node, the failure
// detector, the observability station, following the membership with
// the peer links, and the operator's log lines. The returned function
// tears everything down.
func buildShard(ctx context.Context, srv *server, g, id int, peers []string, shards int, dataDir, fsync string, forceJoin bool, inc uint64) (_ func(), err error) {
	st := srv.shards[g]
	addrs := make(map[transport.NodeID]string, len(peers))
	for i, addr := range peers {
		shifted, err := shiftAddr(strings.TrimSpace(addr), g)
		if err != nil {
			return nil, err
		}
		addrs[transport.NodeID(i)] = shifted
	}
	var cleanup []func()
	stop := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()

	scope := srv.metrics.Scope("shard", strconv.Itoa(g), "site", strconv.Itoa(id))
	node, err := transport.ListenTCP(transport.TCPConfig{
		ID:          transport.NodeID(id),
		Addrs:       addrs,
		Incarnation: inc,
		Metrics:     scope,
	})
	if err != nil {
		return nil, err
	}
	cleanup = append(cleanup, func() { _ = node.Close() })

	fdcfg := fd.Config{Interval: 100 * time.Millisecond, Incarnation: inc, Metrics: scope}
	if g == 0 {
		// Flight-recorder events come from the first group only: site i of
		// every group shares a failure domain, so one causal log per
		// process suffices and per-shard duplicates would only be noise.
		fdcfg.Events = srv.events
	}
	detector := fd.New(node, fdcfg)
	detector.Start()
	cleanup = append(cleanup, detector.Stop)

	// The group configuration is seeded from -peers; recovered or
	// transferred state carrying a newer committed configuration
	// overrides the seed, so the replica lands in the correct epoch.
	cfg := site.Config{
		Endpoint:     node,
		Bootstrap:    member.Bootstrap(addrs),
		Dir:          dataDir,
		Suspector:    detector,
		RoundTimeout: 250 * time.Millisecond,
		Replica:      db.Config{Registry: srv.reg, Trace: srv.trace, Shard: g},
		Metrics:      scope,
		Events:       srv.events,
	}
	if dataDir != "" {
		if shards > 1 {
			cfg.Dir = filepath.Join(dataDir, fmt.Sprintf("shard-%d", g))
		}
		if cfg.Sync, err = wal.ParseSyncPolicy(fsync); err != nil {
			return nil, err
		}
	}
	s, err := site.Open(cfg)
	if err != nil {
		return nil, err
	}
	// The replica flushes and closes the WAL on Stop, so the
	// SIGINT/SIGTERM path never drops the log tail.
	cleanup = append(cleanup, s.Stop)
	if dataDir != "" {
		fmt.Printf("otpd: replica %d%s recovered to commit index %d (fsync=%s)\n", id, shardTag(g, shards), s.Base, cfg.Sync)
	}
	st.base.Store(s.Base)

	// The membership tracker is primed from the committed configuration
	// the store now holds — the -peers seed for a fresh start, the
	// recovered one otherwise — and retargets the transport mesh and the
	// failure detector on every epoch change, including right now: the
	// recovered configuration may already disagree with -peers (peers
	// replaced at new addresses while we were down), and both the join
	// probe below and the consensus view must follow the committed
	// membership, not the stale command line.
	tracker := s.Tracker
	mcfg := tracker.Config()
	applyMembership := func(cfg member.Config) {
		node.SetPeers(cfg.Addrs())
		detector.SetMembers(cfg.IDs())
		fmt.Printf("otpd: replica %d%s membership %s\n", id, shardTag(g, shards), cfg)
	}
	if g == 0 {
		tracker.SetEvents(srv.events, id)
		// The tracker only records configurations it *applies*; the
		// bootstrap install happened in site.Open, so log it here —
		// a fresh replica's flight recorder is never empty and WATCH
		// always has a first event to replay.
		srv.events.Record(id, events.KindEpochChange,
			"epoch", strconv.FormatUint(mcfg.Epoch, 10),
			"members", fmt.Sprint(mcfg.IDs()))
	}
	tracker.OnChange(applyMembership)
	applyMembership(mcfg)
	st.tracker.Store(tracker)

	if g == 0 {
		// The observability station rides the first group's mesh (every
		// process has one): it answers peers' TRACE and /cluster/metrics
		// fan-outs from the local ring and registry, and stamps replies
		// with the membership epoch so the caller can fence stale members.
		station := obs.New(node, obs.Config{
			Site:    id,
			Epoch:   tracker.Epoch,
			Trace:   srv.trace,
			Metrics: srv.metrics,
		})
		station.Start()
		cleanup = append(cleanup, station.Stop)
		srv.station.Store(station)
	}

	// State transfer: a durable replica that recovered committed state
	// assumes the cluster kept running and catches up from a live peer;
	// -join forces the same for a replica with no local state. A cluster
	// where every process restarts together has no donor to answer, so
	// the probe times out and the replica falls back to a cold start.
	var donors []transport.NodeID
	if len(peers) > 1 && (forceJoin || s.Base > 0) {
		fmt.Printf("otpd: replica %d%s joining: advertising recovered index %d to peers\n", id, shardTag(g, shards), s.Base)
		donors = tracker.Members()
	}
	if err := s.Start(ctx, donors, forceJoin); err != nil {
		return nil, err
	}
	st.base.Store(s.Base)
	switch j := s.Join; {
	case j.Mode != 0:
		fmt.Printf("otpd: replica %d%s state transfer from %v: %s, base %d, backlog %d, resume stage %d\n",
			id, shardTag(g, shards), j.Donor, j.Mode, s.Base, j.Backlog, j.Stage)
	case j.Err != nil:
		// Correct for a whole-cluster restart (nobody was serving,
		// every replica cold-starts from the same index); wrong if
		// the cluster actually kept running — this replica would
		// re-enter ordering misaligned with the survivors. Make the
		// fallback loud so the operator can tell which one happened.
		fmt.Printf("otpd: WARNING: replica %d%s found no live donor; cold-starting from local state.\n", id, shardTag(g, shards))
		fmt.Printf("otpd: WARNING: safe only if all replicas restart together — if the cluster is still running, stop this replica and restart it with -join\n")
		fmt.Printf("otpd: (join error: %v)\n", j.Err)
	}
	st.site.Store(s)
	st.rep.Store(s.Replica)
	return stop, nil
}

// shardTag renders " shard g" in log lines, empty in single-shard mode
// (whose log shapes predate sharding).
func shardTag(g, shards int) string {
	if shards == 1 {
		return ""
	}
	return fmt.Sprintf(" shard %d", g)
}

// srvHandle is one in-flight SUBMIT on a client connection: the
// server-side analogue of an otpdb.Handle. The reply line is rendered at
// resolution and delivered over the buffered channel exactly once.
type srvHandle struct {
	ch chan string
}

// clientSession is the per-connection state: pending SUBMIT handles
// awaiting WAIT.
type clientSession struct {
	srv      *server
	pending  map[string]*srvHandle
	crossSeq uint64 // per-connection cross-shard handle counter
}

// serveClient speaks the line protocol on one client connection.
func serveClient(conn net.Conn, srv *server) {
	defer func() { _ = conn.Close() }()
	cs := &clientSession{srv: srv, pending: make(map[string]*srvHandle)}
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 && strings.ToUpper(fields[0]) == "WATCH" {
			// WATCH switches the connection to push mode: the flight
			// recorder's retained ring replays first, then every new event
			// streams as it is recorded, until the client disconnects.
			streamWatch(conn, w, srv)
			return
		}
		reply := cs.handle(fields)
		_, _ = w.WriteString(reply + "\n")
		_ = w.Flush()
	}
}

// streamWatch serves the WATCH verb: `EVENT {json}` lines, ring replay
// then live tail. It returns when the client goes away (write error, or
// the read side seeing EOF) — the subscription is cancelled so a dead
// watcher costs the recorder nothing.
func streamWatch(conn net.Conn, w *bufio.Writer, srv *server) {
	ch, cancel := srv.events.Watch(256)
	defer cancel()
	writeEvent := func(ev events.Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := w.WriteString("EVENT " + string(b) + "\n"); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	if _, err := w.WriteString("WATCH streaming\n"); err != nil {
		return
	}
	if w.Flush() != nil {
		return
	}
	for _, ev := range srv.events.Events() {
		if !writeEvent(ev) {
			return
		}
	}
	// A watcher that just hangs up produces no write error until the
	// next event; poll the read side so an idle WATCH still ends.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		buf := make([]byte, 1)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !writeEvent(ev) {
				return
			}
		case <-closed:
			return
		}
	}
}

// fmtCommit renders a commit outcome in the EXEC/WAIT reply shape.
func fmtCommit(info db.CommitInfo, latency time.Duration) string {
	outcome := "fastpath"
	switch {
	case info.Retried:
		outcome = "retried"
	case info.Reordered:
		outcome = "reordered"
	}
	return fmt.Sprintf("OK value=%d to=%d outcome=%s latency=%s",
		storage.ValueInt64(info.Value), info.TOIndex, outcome,
		latency.Round(time.Microsecond))
}

// fmtCross renders a committed cross-shard transaction: the usual shape
// (to= is the home shard's position) plus the full per-shard positions.
func fmtCross(res shard.CrossResult, latency time.Duration) string {
	outcome := "fastpath"
	if res.Retries > 0 {
		outcome = "retried"
	}
	home := int64(0)
	spans := make([]string, 0, len(res.ShardTO))
	for _, st := range res.ShardTO {
		if st.Shard == res.Home {
			home = st.TOIndex
		}
		spans = append(spans, fmt.Sprintf("%d:%d", st.Shard, st.TOIndex))
	}
	out := fmt.Sprintf("OK value=%d to=%d outcome=%s latency=%s shard=%d xto=%s",
		storage.ValueInt64(res.Value), home, outcome,
		latency.Round(time.Microsecond), res.Home, strings.Join(spans, ","))
	if res.Trace != "" {
		// The cluster-wide trace id: feed it back to TRACE to stitch the
		// transaction's spans from every member.
		out += " trace=" + res.Trace
	}
	return out
}

// schedStats is one shard's scheduler counters as STATS reports them,
// read from the metrics registry — the same Func collectors /metrics
// scrapes — so the two surfaces cannot drift.
type schedStats struct {
	commits, aborts, reorders uint64
	pending                   int
	to                        int64
}

// schedFromSnapshot extracts shard g's scheduler series from one
// registry snapshot.
func schedFromSnapshot(snap []metrics.Sample, g int) schedStats {
	want := strconv.Itoa(g)
	var out schedStats
	for _, s := range snap {
		if !hasLabel(s.Labels, "shard", want) {
			continue
		}
		switch s.Name {
		case "otp_commits_total":
			out.commits = uint64(s.Value)
		case "otp_rollback_total":
			out.aborts = uint64(s.Value)
		case "otp_reposition_total":
			out.reorders = uint64(s.Value)
		case "otp_pending":
			out.pending = int(s.Value)
		case "otp_last_to_index":
			out.to = int64(s.Value)
		}
	}
	return out
}

func hasLabel(labels []metrics.Label, key, value string) bool {
	for _, l := range labels {
		if l.Key == key && l.Value == value {
			return true
		}
	}
	return false
}

// shardStatsLine renders one shard's counters in the STATS field shape.
func shardStatsLine(snap []metrics.Sample, g int, st *shardStack) string {
	rep := st.rep.Load()
	base := st.base.Load()
	epoch, members := st.membership()
	if rep == nil {
		return fmt.Sprintf("SHARD id=%d commits=0 aborts=0 reorders=0 pending=0 to=%d recovered=%d epoch=%d members=%d role=%s",
			g, base, base, epoch, members, st.role())
	}
	ss := schedFromSnapshot(snap, g)
	return fmt.Sprintf("SHARD id=%d commits=%d aborts=%d reorders=%d pending=%d to=%d recovered=%d epoch=%d members=%d role=%s",
		g, ss.commits, ss.aborts, ss.reorders, ss.pending,
		ss.to, base, epoch, members, st.role())
}

// routeShard resolves which shard group an update procedure belongs to:
// (g, false) for a single-shard procedure, (_, true) for one spanning
// shards.
func (cs *clientSession) routeShard(proc string) (int, bool, error) {
	classes, err := cs.srv.reg.UpdateClasses(proc)
	if err != nil {
		return 0, false, err
	}
	split := cs.srv.smap.Split(classes)
	if len(split) > 1 {
		return 0, true, nil
	}
	for g := range split {
		return g, false, nil
	}
	return 0, false, nil
}

func (cs *clientSession) handle(fields []string) string {
	if len(fields) == 0 {
		return "ERR empty command"
	}
	srv := cs.srv
	cmd := strings.ToUpper(fields[0])
	if cmd == "STATS" || cmd == "STATUS" {
		// Answered in every phase: a joiner reports its progress before
		// the replicas exist. Single-shard keeps the historic one-line
		// shape; sharded mode prints a summary line plus one SHARD line
		// per group.
		snap := srv.metrics.Snapshot()
		if len(srv.shards) == 1 {
			st := srv.shards[0]
			base := st.base.Load()
			epoch, members := st.membership()
			if st.rep.Load() == nil {
				return fmt.Sprintf("STATS commits=0 aborts=0 reorders=0 pending=0 to=%d recovered=%d epoch=%d members=%d role=%s",
					base, base, epoch, members, srv.role())
			}
			ss := schedFromSnapshot(snap, 0)
			return fmt.Sprintf("STATS commits=%d aborts=%d reorders=%d pending=%d to=%d recovered=%d epoch=%d members=%d role=%s",
				ss.commits, ss.aborts, ss.reorders, ss.pending,
				ss.to, base, epoch, members, srv.role())
		}
		var commits, aborts, reorders uint64
		var pending int
		var to, recovered int64
		for g, st := range srv.shards {
			recovered += st.base.Load()
			if st.rep.Load() != nil {
				ss := schedFromSnapshot(snap, g)
				commits += ss.commits
				aborts += ss.aborts
				reorders += ss.reorders
				pending += ss.pending
				to += ss.to
			} else {
				to += st.base.Load()
			}
		}
		epoch, members := srv.shards[0].membership()
		lines := []string{fmt.Sprintf("STATS shards=%d commits=%d aborts=%d reorders=%d pending=%d to=%d recovered=%d epoch=%d members=%d role=%s",
			len(srv.shards), commits, aborts, reorders, pending, to, recovered, epoch, members, srv.role())}
		for g, st := range srv.shards {
			lines = append(lines, shardStatsLine(snap, g, st))
		}
		return strings.Join(lines, "\n")
	}
	if cmd == "METRICS" {
		// Answered in every phase, like STATS: the registry exists from
		// process start. One series per line, histograms as summaries.
		snap := srv.metrics.Snapshot()
		lines := make([]string, 0, len(snap)+1)
		lines = append(lines, fmt.Sprintf("METRICS n=%d", len(snap)))
		for _, s := range snap {
			lines = append(lines, metricLine(s))
		}
		return strings.Join(lines, "\n")
	}
	if cmd == "TRACE" {
		if len(fields) != 2 {
			return "ERR TRACE needs a transaction id"
		}
		// Cluster-wide first: fan the query out through the obs station to
		// every current member and stitch their rings into one causally
		// ordered span set. Fall back to the local ring when the station
		// is not up yet (joining) or no peer had the trace.
		var evs []metrics.TraceEvent
		keys := traceTxnKeys(fields[1])
		if station := srv.station.Load(); station != nil {
			if tr := srv.shards[0].tracker.Load(); tr != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				for _, key := range keys {
					if evs = station.Trace(ctx, key, tr.Members()); len(evs) > 0 {
						break
					}
				}
				cancel()
			}
		}
		if len(evs) == 0 {
			for _, key := range keys {
				if evs = srv.trace.Find(key); len(evs) > 0 {
					break
				}
			}
		}
		lines := make([]string, 0, len(evs)+1)
		lines = append(lines, fmt.Sprintf("TRACE n=%d", len(evs)))
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return "ERR " + err.Error()
			}
			lines = append(lines, string(b))
		}
		return strings.Join(lines, "\n")
	}
	if cmd == "SHARD" {
		if len(fields) < 2 {
			return "ERR SHARD needs LIST or MAP <class>"
		}
		switch strings.ToUpper(fields[1]) {
		case "LIST":
			return fmt.Sprintf("SHARDS n=%d version=%d", srv.smap.Shards(), srv.smap.Version())
		case "MAP":
			if len(fields) != 3 {
				return "ERR SHARD MAP needs a class"
			}
			return fmt.Sprintf("SHARD class=%s id=%d", fields[2], srv.smap.Locate(sproc.ClassID(fields[2])))
		default:
			return "ERR unknown SHARD subcommand " + fields[1]
		}
	}
	if srv.waitReady(30*time.Second) == nil {
		return "ERR replica still joining"
	}
	switch cmd {
	case "EXEC":
		if len(fields) < 2 {
			return "ERR EXEC needs a procedure"
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		start := time.Now()
		g, cross, err := cs.routeShard(fields[1])
		if err != nil {
			return "ERR " + err.Error()
		}
		if cross {
			res, err := srv.coord.Exec(ctx, fields[1], parseArgs(fields[2:])...)
			if err != nil {
				return "ERR " + err.Error()
			}
			return fmtCross(res, time.Since(start))
		}
		info, err := srv.shards[g].rep.Load().Exec(ctx, fields[1], parseArgs(fields[2:])...)
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmtCommit(info, time.Since(start))
	case "SUBMIT":
		if len(fields) < 2 {
			return "ERR SUBMIT needs a procedure"
		}
		g, cross, err := cs.routeShard(fields[1])
		if err != nil {
			return "ERR " + err.Error()
		}
		start := time.Now()
		h := &srvHandle{ch: make(chan string, 1)}
		if cross {
			// Cross-shard handles are keyed x.<n>: they have no single
			// broadcast identity, the coordinator spans groups.
			cs.crossSeq++
			key := fmt.Sprintf("x.%d", cs.crossSeq)
			cs.pending[key] = h
			args := parseArgs(fields[2:])
			proc := fields[1]
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				res, err := srv.coord.Exec(ctx, proc, args...)
				if err != nil {
					h.ch <- "ERR " + err.Error()
					return
				}
				h.ch <- fmtCross(res, time.Since(start))
			}()
			return "ID " + key
		}
		id, err := srv.shards[g].rep.Load().SubmitNotify(fields[1], parseArgs(fields[2:]),
			func(res db.CommitResult) {
				if res.Err != nil {
					h.ch <- "ERR " + res.Err.Error()
					return
				}
				h.ch <- fmtCommit(res.Info, time.Since(start))
			})
		if err != nil {
			return "ERR " + err.Error()
		}
		key := fmt.Sprintf("%d.%d", id.Origin, id.Seq)
		if len(srv.shards) > 1 {
			// Group-local sequence numbers collide across shards; qualify.
			key = fmt.Sprintf("%d.%d.%d", g, id.Origin, id.Seq)
		}
		cs.pending[key] = h
		return "ID " + key
	case "WAIT":
		if len(fields) != 2 {
			return "ERR WAIT needs an id"
		}
		h, ok := cs.pending[fields[1]]
		if !ok {
			return "ERR unknown handle " + fields[1] + " (SUBMIT on this connection first)"
		}
		select {
		case reply := <-h.ch:
			delete(cs.pending, fields[1])
			return reply
		case <-time.After(30 * time.Second):
			// Keep the handle: the reply channel is buffered, so a
			// retried WAIT can still collect the commit when it lands.
			return "ERR timeout waiting for " + fields[1]
		}
	case "QUERY":
		if len(fields) < 2 {
			return "ERR QUERY needs a procedure"
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		v, err := cs.query(ctx, fields[1], parseArgs(fields[2:]))
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("VALUE %d", storage.ValueInt64(v))
	case "DIGEST":
		if len(srv.shards) == 1 {
			return fmt.Sprintf("DIGEST %016x", srv.shards[0].rep.Load().Store().Digest())
		}
		digests := make([]string, len(srv.shards))
		for g, st := range srv.shards {
			digests[g] = fmt.Sprintf("%016x", st.rep.Load().Store().Digest())
		}
		return "DIGEST " + strings.Join(digests, " ")
	case "MEMBER":
		return cs.handleMember(fields[1:])
	default:
		return "ERR unknown command " + fields[0]
	}
}

// query runs a read-only procedure: directly on the single group, or —
// in sharded mode — over one pinned snapshot per shard group touched,
// opened lazily at first read (per-shard snapshot isolation).
func (cs *clientSession) query(ctx context.Context, name string, args []storage.Value) (storage.Value, error) {
	srv := cs.srv
	if len(srv.shards) == 1 {
		return srv.shards[0].rep.Load().Query(ctx, name, args...)
	}
	q, err := srv.reg.Query(name)
	if err != nil {
		return nil, err
	}
	mq := &multiQueryCtx{srv: srv, ctx: ctx, args: args, snaps: make(map[int]*db.QuerySnap)}
	defer mq.close()
	res, err := q.Fn(mq)
	if err != nil {
		return nil, err
	}
	if mq.err != nil {
		return nil, mq.err
	}
	return res, nil
}

// multiQueryCtx adapts per-shard QuerySnaps to sproc.QueryCtx, routing
// each read to the snapshot of the shard group owning its class.
type multiQueryCtx struct {
	srv   *server
	ctx   context.Context
	args  []storage.Value
	snaps map[int]*db.QuerySnap
	err   error
}

func (m *multiQueryCtx) Args() []storage.Value { return m.args }

func (m *multiQueryCtx) Read(class sproc.ClassID, key storage.Key) (storage.Value, bool) {
	if m.err != nil {
		return nil, false
	}
	g := m.srv.smap.Locate(class)
	snap := m.snaps[g]
	if snap == nil {
		rep := m.srv.shards[g].rep.Load()
		if rep == nil {
			m.err = fmt.Errorf("shard %d still joining", g)
			return nil, false
		}
		var err error
		snap, err = rep.BeginSnap(m.ctx)
		if err != nil {
			m.err = err
			return nil, false
		}
		m.snaps[g] = snap
	}
	v, ok := snap.Read(class, key)
	if e := snap.Err(); e != nil {
		m.err = e
		return nil, false
	}
	return v, ok
}

func (m *multiQueryCtx) close() {
	for _, snap := range m.snaps {
		snap.Close()
	}
}

// handleMember executes a membership change: the successor configuration
// is derived from this replica's current view and committed through the
// definitive order like any transaction — in every shard group, in shard
// order (shard g places the new member at the given address's port + g).
// A concurrent change loses the race with an epoch-conflict error; retry
// against the new STATUS.
//
//	MEMBER ADD <id> <addr>      admit a new site
//	MEMBER REMOVE <id>          shrink the group
//	MEMBER REPLACE <id> <addr>  re-admit a dead site's id at a new address
func (cs *clientSession) handleMember(args []string) string {
	srv := cs.srv
	if len(args) < 2 {
		return "ERR MEMBER needs ADD <id> <addr> | REMOVE <id> | REPLACE <id> <addr>"
	}
	id, err := strconv.Atoi(args[1])
	if err != nil {
		return "ERR bad site id " + args[1]
	}
	verb := strings.ToUpper(args[0])
	var reply string
	for g, st := range srv.shards {
		tr := st.tracker.Load()
		rep := st.rep.Load()
		if tr == nil || rep == nil {
			return fmt.Sprintf("ERR shard %d still joining", g)
		}
		addr := ""
		if len(args) == 3 {
			if addr, err = shiftAddr(args[2], g); err != nil {
				return "ERR " + err.Error()
			}
		}
		cur := tr.Config()
		var next member.Config
		switch verb {
		case "ADD":
			if len(args) != 3 {
				return "ERR MEMBER ADD needs <id> <addr>"
			}
			next, err = cur.WithAdd(member.Site{ID: transport.NodeID(id), Addr: addr})
		case "REMOVE":
			if len(args) != 2 {
				return "ERR MEMBER REMOVE needs <id>"
			}
			next, err = cur.WithRemove(transport.NodeID(id))
		case "REPLACE":
			if len(args) != 3 {
				return "ERR MEMBER REPLACE needs <id> <addr>"
			}
			next, err = cur.WithReplace(transport.NodeID(id), addr)
		default:
			return "ERR unknown MEMBER subcommand " + args[0]
		}
		if err != nil {
			return fmt.Sprintf("ERR shard %d: %s", g, err.Error())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		info, err := rep.Exec(ctx, member.Proc, member.Encode(next))
		cancel()
		if err != nil {
			return fmt.Sprintf("ERR shard %d: %s", g, err.Error())
		}
		if g == 0 {
			reply = fmt.Sprintf("OK epoch=%d members=%d to=%d", next.Epoch, len(next.Members), info.TOIndex)
		}
	}
	return reply
}

// metricLine renders one registry series for the METRICS verb: scalars
// as `name{labels} value`, histograms as a count/quantile summary —
// durations via time.Duration strings, size histograms as raw integers.
func metricLine(s metrics.Sample) string {
	var labels string
	if len(s.Labels) > 0 {
		parts := make([]string, len(s.Labels))
		for i, l := range s.Labels {
			parts[i] = l.Key + "=" + l.Value
		}
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	switch s.Kind {
	case metrics.KindHistogram:
		sum := s.Hist.Summarize()
		return fmt.Sprintf("%s%s count=%d p50=%s p95=%s p99=%s",
			s.Name, labels, sum.Count, sum.P50, sum.P95, sum.P99)
	case metrics.KindSizeHistogram:
		sum := s.Hist.Summarize()
		return fmt.Sprintf("%s%s count=%d p50=%d p95=%d p99=%d",
			s.Name, labels, sum.Count, int64(sum.P50), int64(sum.P95), int64(sum.P99))
	default:
		if s.Value == float64(int64(s.Value)) {
			return fmt.Sprintf("%s%s %d", s.Name, labels, int64(s.Value))
		}
		return fmt.Sprintf("%s%s %g", s.Name, labels, s.Value)
	}
}

// traceTxnKeys maps a client-facing transaction id — SUBMIT's
// "<origin>.<seq>" (or "<shard>.<origin>.<seq>" in sharded mode) — to
// the engine's MsgID string ("m<origin>.<seq>"); an engine-form id
// ("m...") or a cross-shard trace id ("tx...") passes through verbatim.
func traceTxnKeys(arg string) []string {
	if strings.HasPrefix(arg, "m") || strings.HasPrefix(arg, "t") {
		return []string{arg}
	}
	parts := strings.Split(arg, ".")
	switch len(parts) {
	case 2:
		return []string{"m" + arg}
	case 3:
		return []string{"m" + parts[1] + "." + parts[2]}
	}
	return []string{arg}
}

// parseArgs converts protocol arguments: decimal integers become Int64
// values, everything else a string value.
func parseArgs(args []string) []storage.Value {
	out := make([]storage.Value, len(args))
	for i, a := range args {
		if n, err := strconv.ParseInt(a, 10, 64); err == nil && i > 0 {
			out[i] = storage.Int64Value(n)
			continue
		}
		out[i] = storage.StringValue(a)
	}
	return out
}
