package lineproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"otpdb/internal/db"
	"otpdb/internal/events"
	"otpdb/internal/member"
	"otpdb/internal/metrics"
	"otpdb/internal/obs"
	"otpdb/internal/shard"
	"otpdb/internal/site"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

const (
	// replyWait bounds every wait a command line can cause: for the
	// replica to come up, and for the reply of EXEC, WAIT, QUERY and
	// MEMBER. (A cross-shard transaction is additionally bounded by its
	// coordinator's own vote and resolve timeouts, wherever it was
	// submitted.)
	replyWait = 30 * time.Second
	// maxPending caps the SUBMIT handles a connection holds. At the cap,
	// handles whose reply is already in but was never WAITed for are
	// forgotten to make room; when every handle is still in flight,
	// SUBMIT is refused.
	maxPending = 1024
	// maxLine is the longest command line accepted.
	maxLine = bufio.MaxScanTokenSize
)

// Shard is one shard group's per-process state, published piecewise as
// the replica comes to life: Base and Tracker after local recovery, Site
// and Rep once recovery and any state transfer finished. STATS answers
// from whatever is there, so operators (and tests) can watch a joiner
// catch up.
type Shard struct {
	Rep     atomic.Pointer[db.Replica]
	Site    atomic.Pointer[site.Site] // the stack behind Rep: its donor service tells the role
	Tracker atomic.Pointer[member.Tracker]
	Base    atomic.Int64 // locally recovered (then transferred) definitive index
}

// Config is what a Server serves from.
type Config struct {
	Registry    *sproc.Registry
	Map         *shard.Map
	Coordinator *shard.Coordinator
	Metrics     *metrics.Registry
	Trace       *metrics.TraceRing
	Events      *events.Recorder
}

// Server is the process state the client protocol serves from.
type Server struct {
	Config
	// Shards has one entry per shard group of the map.
	Shards []*Shard
	// Station is the cluster-wide trace/metrics fan-out, once up.
	Station atomic.Pointer[obs.Station]

	router *shard.Router
	ready  chan struct{} // closed when every shard's replica is published
	wait   time.Duration
}

// NewServer creates the server of a process hosting one replica per shard
// of cfg.Map; the caller publishes them in Shards and then calls Ready.
func NewServer(cfg Config) *Server {
	s := &Server{Config: cfg, ready: make(chan struct{}), wait: replyWait}
	locals := make([]shard.Local, cfg.Map.Shards())
	for g := range locals {
		st := &Shard{}
		s.Shards = append(s.Shards, st)
		locals[g] = func() (*db.Replica, *member.Tracker) { return st.Rep.Load(), st.Tracker.Load() }
	}
	s.router = shard.NewRouter(cfg.Registry, cfg.Map, cfg.Coordinator, locals)
	return s
}

// Ready announces that every shard's replica is published.
func (s *Server) Ready() { close(s.ready) }

// isReady reports whether Ready was called, waiting up to d for it.
func (s *Server) isReady(d time.Duration) bool {
	select {
	case <-s.ready:
		return true
	default:
	}
	select {
	case <-s.ready:
		return true
	case <-time.After(d):
		return false
	}
}

// role reports one shard's life-cycle phase ("joining" before the shard's
// replica exists, even if other shards are already up).
func (st *Shard) role() string {
	if st.Rep.Load() == nil {
		return "joining"
	}
	if s := st.Site.Load(); s != nil && s.Serving() > 0 {
		return "donor"
	}
	return "serving"
}

// role reports the process's current life-cycle phase.
func (s *Server) role() string {
	if !s.isReady(0) {
		return "joining"
	}
	for _, st := range s.Shards {
		if st.role() == "donor" {
			return "donor"
		}
	}
	return "serving"
}

// ShiftAddr rebases a host:port address to port + delta — shard g's mesh
// listens next to shard 0's.
func ShiftAddr(addr string, delta int) (string, error) {
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

// Conn is the per-connection state: the handles of SUBMITs (an EXEC's
// too, while it waits) not yet collected by WAIT. The reply line of each
// is rendered at resolution and delivered over its buffered channel
// exactly once.
type Conn struct {
	srv      *Server
	pending  map[string]chan string
	crossSeq uint64 // per-connection cross-shard handle counter
	watching bool   // WATCH was answered: the connection is push-only now
}

// Serve speaks the line protocol on one client connection until it ends.
func (s *Server) Serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	c := &Conn{srv: s, pending: make(map[string]chan string)}
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, maxLine)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		_, _ = w.WriteString(c.handle(sc.Text()) + "\n")
		if w.Flush() != nil {
			return
		}
		if c.watching {
			s.streamWatch(conn, w)
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The rest of the line is unread and cannot be resynchronised:
		// say why, then hang up.
		_, _ = w.WriteString("ERR line too long\n")
		_ = w.Flush()
	}
}

// handle answers one command line: look the verb up and check its
// arguments first, so that a malformed line is refused at once in every
// phase; only then wait for the replica, if the verb needs it.
func (c *Conn) handle(line string) string {
	v, args, errReply := Lookup(strings.Fields(line))
	if v == nil {
		return errReply
	}
	if v.NeedsReplica && !c.srv.isReady(c.srv.wait) {
		return "ERR replica still joining"
	}
	return v.run(c, args)
}

// parseArgs converts protocol arguments: decimal integers become Int64
// values, everything else a string value — except the first argument,
// which is always a string (the key) even when it is all digits.
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

// fmtResult renders a committed transaction in the EXEC/WAIT reply shape;
// a cross-shard one (to= is the home shard's position) adds the home
// shard, the full per-shard positions and the cluster-wide trace id to
// feed back to TRACE.
func fmtResult(res shard.Result) string {
	out := fmt.Sprintf("OK value=%d to=%d outcome=%s latency=%s",
		storage.ValueInt64(res.Value), res.TOIndex, res.Outcome, res.Latency.Round(time.Microsecond))
	if res.ShardTO == nil {
		return out
	}
	spans := make([]string, len(res.ShardTO))
	for i, st := range res.ShardTO {
		spans[i] = fmt.Sprintf("%d:%d", st.Shard, st.TOIndex)
	}
	out += fmt.Sprintf(" shard=%d xto=%s", res.Shard, strings.Join(spans, ","))
	if res.Trace != "" {
		out += " trace=" + res.Trace
	}
	return out
}

// runExec is SUBMIT then WAIT: a timeout's error names the handle, which
// a later WAIT on this connection can still collect.
func runExec(c *Conn, args []string) string {
	reply := runSubmit(c, args)
	if key, ok := strings.CutPrefix(reply, "ID "); ok {
		return runWait(c, []string{key})
	}
	return reply
}

func runSubmit(c *Conn, args []string) string {
	if len(c.pending) >= maxPending {
		for key, ch := range c.pending {
			if len(ch) > 0 { // replied, never collected
				delete(c.pending, key)
			}
		}
		if len(c.pending) >= maxPending {
			return "ERR too many pending (WAIT some first)"
		}
	}
	ch := make(chan string, 1)
	id, g, err := c.srv.router.Submit(args[0], parseArgs(args[1:]), func(res shard.Result, err error) {
		if err != nil {
			ch <- "ERR " + err.Error()
			return
		}
		ch <- fmtResult(res)
	})
	if err != nil {
		return "ERR " + err.Error()
	}
	key := fmt.Sprintf("%d.%d", id.Origin, id.Seq)
	switch {
	case g < 0:
		// Cross-shard handles are keyed x.<n>: they have no single
		// broadcast identity, the coordinator spans groups.
		c.crossSeq++
		key = fmt.Sprintf("x.%d", c.crossSeq)
	case len(c.srv.Shards) > 1:
		// Group-local sequence numbers collide across shards; qualify.
		key = fmt.Sprintf("%d.%s", g, key)
	}
	c.pending[key] = ch
	return "ID " + key
}

func runWait(c *Conn, args []string) string {
	ch, ok := c.pending[args[0]]
	if !ok {
		return "ERR unknown handle " + args[0] + " (SUBMIT on this connection first)"
	}
	select {
	case reply := <-ch:
		delete(c.pending, args[0])
		return reply
	case <-time.After(c.srv.wait):
		// Keep the handle: the reply channel is buffered, so a retried
		// WAIT can still collect the commit when it lands.
		return "ERR timeout waiting for " + args[0]
	}
}

func runQuery(c *Conn, args []string) string {
	ctx, cancel := context.WithTimeout(context.Background(), c.srv.wait)
	defer cancel()
	v, err := c.srv.router.Query(ctx, args[0], parseArgs(args[1:])...)
	if err != nil {
		return "ERR " + err.Error()
	}
	return fmt.Sprintf("VALUE %d", storage.ValueInt64(v))
}

func runDigest(c *Conn, _ []string) string {
	out := "DIGEST"
	for _, st := range c.srv.Shards {
		out += fmt.Sprintf(" %016x", st.Rep.Load().Store().Digest())
	}
	return out
}

func runShardList(c *Conn, _ []string) string {
	return fmt.Sprintf("SHARDS n=%d version=%d", c.srv.Map.Shards(), c.srv.Map.Version())
}

func runShardMap(c *Conn, args []string) string {
	return fmt.Sprintf("SHARD class=%s id=%d", args[0], c.srv.Map.Locate(sproc.ClassID(args[0])))
}

// runMember builds the handler of one MEMBER subcommand: change derives
// a group's successor configuration given the site id and — for ADD and
// REPLACE — its address in that group. The change is committed in every
// shard group, shard g placing the member at the given address's port +
// g. A concurrent change loses the race with an epoch-conflict error;
// retry against the new STATUS.
func runMember(change func(cur member.Config, id transport.NodeID, addr string) (member.Config, error)) func(*Conn, []string) string {
	return func(c *Conn, args []string) string {
		id, err := strconv.Atoi(args[0])
		if err != nil {
			return "ERR bad site id " + args[0]
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.srv.wait)
		defer cancel()
		next, to, err := c.srv.router.ProposeMember(ctx, func(g int, cur member.Config) (member.Config, error) {
			addr := ""
			if len(args) == 2 {
				if addr, err = ShiftAddr(args[1], g); err != nil {
					return member.Config{}, err
				}
			}
			return change(cur, transport.NodeID(id), addr)
		})
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("OK epoch=%d members=%d to=%d", next.Epoch, len(next.Members), to)
	}
}

// statsShape is the STATS field list; statsLine is the one place it is
// rendered, for all three shapes: the unsharded line ("STATS"), a
// sharded replica's summary ("STATS shards=<S>") and its per-shard lines
// ("SHARD id=<g>").
const statsShape = "commits=<n> aborts=<n> reorders=<n> pending=<n> to=<idx> recovered=<idx> epoch=<e> members=<n> role=<joining|serving|donor>"

func statsLine(prefix string, ss schedStats, st *Shard, role string) string {
	var epoch uint64
	members := 0
	if tr := st.Tracker.Load(); tr != nil {
		cfg := tr.Config()
		epoch, members = cfg.Epoch, len(cfg.Members)
	}
	return fmt.Sprintf("%s commits=%d aborts=%d reorders=%d pending=%d to=%d recovered=%d epoch=%d members=%d role=%s",
		prefix, ss.commits, ss.aborts, ss.reorders, ss.pending, ss.to, ss.recovered, epoch, members, role)
}

// schedStats is one shard's scheduler counters as STATS reports them.
type schedStats struct {
	commits, aborts, reorders uint64
	pending                   int
	to, recovered             int64
}

// stats reads shard g's scheduler series out of one registry snapshot —
// the same Func collectors /metrics scrapes, so the two surfaces cannot
// drift. A shard still joining reports its recovered index and zeros.
func (s *Server) stats(snap []metrics.Sample, g int) schedStats {
	base := s.Shards[g].Base.Load()
	out := schedStats{to: base, recovered: base}
	if s.Shards[g].Rep.Load() == nil {
		return out
	}
	out.to = 0
	want := metrics.Label{Key: "shard", Value: strconv.Itoa(g)}
	for _, sm := range snap {
		if !slices.Contains(sm.Labels, want) {
			continue
		}
		switch sm.Name {
		case "otp_commits_total":
			out.commits = uint64(sm.Value)
		case "otp_rollback_total":
			out.aborts = uint64(sm.Value)
		case "otp_reposition_total":
			out.reorders = uint64(sm.Value)
		case "otp_pending":
			out.pending = int(sm.Value)
		case "otp_last_to_index":
			out.to = int64(sm.Value)
		}
	}
	return out
}

// runStats is answered in every phase: a joiner reports its progress
// before the replicas exist. Single-shard keeps the historic one-line
// shape; sharded mode prints a summary line (shard 0's membership) plus
// one SHARD line per group.
func runStats(c *Conn, _ []string) string {
	srv := c.srv
	snap := srv.Metrics.Snapshot()
	if len(srv.Shards) == 1 {
		return statsLine("STATS", srv.stats(snap, 0), srv.Shards[0], srv.role())
	}
	var sum schedStats
	lines := make([]string, 1, 1+len(srv.Shards))
	for g, st := range srv.Shards {
		ss := srv.stats(snap, g)
		sum.commits += ss.commits
		sum.aborts += ss.aborts
		sum.reorders += ss.reorders
		sum.pending += ss.pending
		sum.to += ss.to
		sum.recovered += ss.recovered
		lines = append(lines, statsLine(fmt.Sprintf("SHARD id=%d", g), ss, st, st.role()))
	}
	lines[0] = statsLine(fmt.Sprintf("STATS shards=%d", len(srv.Shards)), sum, srv.Shards[0], srv.role())
	return strings.Join(lines, "\n")
}

// runMetrics is answered in every phase, like STATS: the registry exists
// from process start. One series per line, histograms as summaries.
func runMetrics(c *Conn, _ []string) string {
	snap := c.srv.Metrics.Snapshot()
	lines := make([]string, 0, len(snap)+1)
	lines = append(lines, fmt.Sprintf("METRICS n=%d", len(snap)))
	for _, s := range snap {
		lines = append(lines, metricLine(s))
	}
	return strings.Join(lines, "\n")
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

// runTrace looks a transaction's spans up cluster-wide first: fan the
// query out through the obs station to every current member and stitch
// their rings into one causally ordered span set. It falls back to the
// local ring when the station is not up yet (joining) or no peer had the
// trace.
func runTrace(c *Conn, args []string) string {
	srv := c.srv
	var evs []metrics.TraceEvent
	key := traceTxnKey(args[0])
	if station, tr := srv.Station.Load(), srv.Shards[0].Tracker.Load(); station != nil && tr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		evs = station.Trace(ctx, key, tr.Members())
		cancel()
	}
	if len(evs) == 0 {
		evs = srv.Trace.Find(key)
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

// traceTxnKey maps a client-facing transaction id — SUBMIT's
// "<origin>.<seq>" (or "<shard>.<origin>.<seq>" in sharded mode) — to
// the engine's MsgID string ("m<origin>.<seq>"); an engine-form id
// ("m...") or a cross-shard trace id ("tx...") passes through verbatim.
func traceTxnKey(arg string) string {
	if strings.HasPrefix(arg, "m") || strings.HasPrefix(arg, "t") {
		return arg
	}
	parts := strings.Split(arg, ".")
	switch len(parts) {
	case 2:
		return "m" + arg
	case 3:
		return "m" + parts[1] + "." + parts[2]
	}
	return arg
}

// runWatch switches the connection to push mode: Serve streams the
// flight recorder once this header is out.
func runWatch(c *Conn, _ []string) string {
	c.watching = true
	return "WATCH streaming"
}

// streamWatch serves the rest of a WATCH: `EVENT {json}` lines, the
// recorder's retained ring first, then every new event as it is
// recorded. It returns when the client goes away (write error, or the
// read side seeing EOF) — the subscription is cancelled so a dead
// watcher costs the recorder nothing.
func (s *Server) streamWatch(conn net.Conn, w *bufio.Writer) {
	ch, cancel := s.Events.Watch(256)
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
	for _, ev := range s.Events.Events() {
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
			if !ok || !writeEvent(ev) {
				return
			}
		case <-closed:
			return
		}
	}
}
