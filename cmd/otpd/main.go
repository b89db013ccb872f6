// Command otpd runs one replica of the replicated database over TCP — the
// multi-process deployment of the paper's architecture. Every replica
// serves a small line protocol for clients (see cmd/otpcli), the TCP
// incarnation of the in-process Session API: EXEC is Session.Exec with
// its typed result, SUBMIT/WAIT are Session.SubmitAsync plus Handle
// resolution, so clients pipeline many transactions per connection.
//
//	EXEC <procedure> [arg ...]   -> OK value=<int64> to=<idx> outcome=<fastpath|reordered|retried> latency=<dur> [shard=<home> xto=<g>:<idx>,... [trace=<id>]]
//	SUBMIT <procedure> [arg ...] -> ID <handle>
//	WAIT <handle>                -> OK ... (as EXEC)
//	QUERY <procedure> [arg ...]  -> VALUE <int64>
//	STATS (alias STATUS)         -> STATS [shards=<S>] commits=<n> aborts=<n> reorders=<n> pending=<n> to=<idx> recovered=<idx> epoch=<e> members=<n> role=<joining|serving|donor>, then with shards= one SHARD id=<g> ... line per shard
//	DIGEST                       -> DIGEST <hex> [<hex> ...] (one per shard)
//	SHARD LIST                   -> SHARDS n=<S> version=<v>
//	SHARD MAP <class>            -> SHARD class=<class> id=<g>
//	MEMBER ADD <id> <addr>       -> OK epoch=<e> members=<n> to=<idx>
//	MEMBER REMOVE <id>           -> OK ... (as MEMBER ADD)
//	MEMBER REPLACE <id> <addr>   -> OK ... (as MEMBER ADD)
//	METRICS                      -> METRICS n=<count>, then one series per line
//	TRACE <id>                   -> TRACE n=<count>, then one JSON span per line
//	WATCH                        -> WATCH streaming, then one EVENT {json} line per flight-recorder event (push; ends at disconnect)
//	(any of them, instead)       -> ERR <message>
//	[arg ...]: a decimal integer is an int64 value, anything else a string; the first argument is always a string (the key), even when it is all digits
//
// (This block is internal/lineproto's verb table, the thing the server
// dispatches through and otpcli frames replies by; a test keeps the copy
// here equal to it.) SUBMIT handles are per-connection: WAIT resolves an
// ID submitted on the same connection (pipeline SUBMITs first, then WAIT
// each ID). A connection holds at most 1024 handles: beyond that, handles
// whose reply is in but was never WAITed for are forgotten, and when all
// of them are still in flight SUBMIT answers ERR too many pending. A line
// longer than 64 KiB is answered ERR line too long and ends the
// connection. STATS is answered in every phase of the replica's life:
// role=joining while a state transfer is catching the replica up
// (to/recovered report the locally recovered index), serving once it
// processes transactions, and donor while it streams state to another
// joiner. A malformed line is refused at once in every phase; well-formed
// commands that need the replica (EXEC, QUERY, ...) wait for it to come
// up. That wait, and the wait for the reply of EXEC, WAIT, QUERY and
// MEMBER, is bounded by one constant (30 s); a transaction spanning
// shards is bounded by its coordinator's vote and resolve timeouts
// however it was submitted.
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
	"context"
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
	"syscall"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/events"
	"otpdb/internal/fd"
	"otpdb/internal/lineproto"
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

	registry := metrics.NewRegistry()
	trace := metrics.NewTraceRing(4096)
	siteScope := registry.Scope("site", strconv.Itoa(id))
	shub := shard.NewHub(shard.Config{Origin: transport.NodeID(id), Incarnation: inc, Metrics: siteScope})
	if err := shub.Register(reg); err != nil {
		return err
	}
	srv := lineproto.NewServer(lineproto.Config{
		Registry:    reg,
		Map:         smap,
		Coordinator: shard.NewCoordinator(shub, smap, reg, shard.CoordConfig{Metrics: siteScope, Trace: trace}),
		Metrics:     registry,
		Trace:       trace,
		Events:      events.NewRecorder(4096),
	})
	for g, st := range srv.Shards {
		shub.Attach(g, func() *db.Replica { return st.Rep.Load() })
	}

	// The observability endpoint comes up first: /metrics (Prometheus
	// text format) and /debug/pprof answer through recovery, join and
	// serving alike. pprof registers on the default mux at import.
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = metrics.WriteProm(w, srv.Metrics)
		})
		// /cluster/metrics federates every live member's registry into one
		// scrape: each member's series site-labelled plus agg rollups. The
		// scrape is membership-aware (only current members are queried) and
		// epoch-fenced (replies from an older membership epoch are dropped),
		// so an evicted member's series disappear within one scrape.
		mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, req *http.Request) {
			station := srv.Station.Load()
			tr := srv.Shards[0].Tracker.Load()
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
			go srv.Serve(conn)
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
	srv.Ready()
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
func buildShard(ctx context.Context, srv *lineproto.Server, g, id int, peers []string, shards int, dataDir, fsync string, forceJoin bool, inc uint64) (_ func(), err error) {
	st := srv.Shards[g]
	addrs := make(map[transport.NodeID]string, len(peers))
	for i, addr := range peers {
		shifted, err := lineproto.ShiftAddr(strings.TrimSpace(addr), g)
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

	scope := srv.Metrics.Scope("shard", strconv.Itoa(g), "site", strconv.Itoa(id))
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
		fdcfg.Events = srv.Events
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
		Replica:      db.Config{Registry: srv.Registry, Trace: srv.Trace, Shard: g},
		Metrics:      scope,
		Events:       srv.Events,
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
	st.Base.Store(s.Base)

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
		tracker.SetEvents(srv.Events, id)
		// The tracker only records configurations it *applies*; the
		// bootstrap install happened in site.Open, so log it here —
		// a fresh replica's flight recorder is never empty and WATCH
		// always has a first event to replay.
		srv.Events.Record(id, events.KindEpochChange,
			"epoch", strconv.FormatUint(mcfg.Epoch, 10),
			"members", fmt.Sprint(mcfg.IDs()))
	}
	tracker.OnChange(applyMembership)
	applyMembership(mcfg)
	st.Tracker.Store(tracker)

	if g == 0 {
		// The observability station rides the first group's mesh (every
		// process has one): it answers peers' TRACE and /cluster/metrics
		// fan-outs from the local ring and registry, and stamps replies
		// with the membership epoch so the caller can fence stale members.
		station := obs.New(node, obs.Config{
			Site:    id,
			Epoch:   tracker.Epoch,
			Trace:   srv.Trace,
			Metrics: srv.Metrics,
		})
		station.Start()
		cleanup = append(cleanup, station.Stop)
		srv.Station.Store(station)
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
	st.Base.Store(s.Base)
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
	st.Site.Store(s)
	st.Rep.Store(s.Replica)
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
