package site

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/member"
	"otpdb/internal/sproc"
	"otpdb/internal/statex"
	"otpdb/internal/storage"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
	"otpdb/internal/wal"
)

const nSites = 3

// network is what differs between the two worlds a site runs in: how an
// endpoint comes to be, and how it dies.
type network interface {
	// endpoint attaches site i; a second call restarts it after crash.
	endpoint(t *testing.T, i int) transport.Endpoint
	crash(i int)
	close()
}

type memNetwork struct {
	hub      *transport.Hub
	attached [nSites]bool
}

func (m *memNetwork) endpoint(_ *testing.T, i int) transport.Endpoint {
	if m.attached[i] {
		return m.hub.Restart(transport.NodeID(i))
	}
	m.attached[i] = true
	return m.hub.Endpoint(transport.NodeID(i))
}
func (m *memNetwork) crash(i int) { m.hub.Crash(transport.NodeID(i)) }
func (m *memNetwork) close()      { m.hub.Close() }

type tcpNetwork struct {
	addrs map[transport.NodeID]string
	nodes [nSites]*transport.TCPNode
}

var registerWire sync.Once

func (n *tcpNetwork) endpoint(t *testing.T, i int) transport.Endpoint {
	registerWire.Do(func() {
		consensus.RegisterWire()
		abcast.RegisterWire()
		db.RegisterWire()
		statex.RegisterWire()
	})
	node, err := transport.ListenTCP(transport.TCPConfig{
		ID: transport.NodeID(i), Addrs: n.addrs, DialRetry: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("listen site %d: %v", i, err)
	}
	n.nodes[i] = node
	return node
}
func (n *tcpNetwork) crash(i int) { _ = n.nodes[i].Close() }
func (n *tcpNetwork) close() {
	for _, node := range n.nodes {
		if node != nil {
			_ = node.Close()
		}
	}
}

// loopbackAddrs reserves one loopback port per site. Both worlds
// bootstrap from the same addresses (memnet ignores them) so that the
// committed configuration, and with it the store digest, is the same
// value in both.
func loopbackAddrs(t *testing.T) map[transport.NodeID]string {
	addrs := make(map[transport.NodeID]string, nSites)
	for i := 0; i < nSites; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

func testRegistry(t *testing.T) *sproc.Registry {
	reg := sproc.NewRegistry()
	err := reg.RegisterUpdate(sproc.Update{
		Name:  "incr",
		Class: "counter",
		Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
			cur, _ := ctx.Read("n")
			next := storage.Int64Value(storage.ValueInt64(cur) + 1)
			return next, ctx.Write("n", next)
		},
	})
	if err == nil {
		err = member.RegisterProc(reg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// lifeCase is one way for site 2 to come (back) to life. Every case
// first cold-starts all three sites and commits `before` transactions;
// the cold-start case observes site 2 right there, the others take it
// down and bring it back as described.
type lifeCase struct {
	name string
	// durable gives site 2 a data directory.
	durable bool
	// restart takes site 2 down and brings it back.
	restart bool
	// missed is what the survivors commit while site 2 is down: one
	// membership change (epoch 2) and this many transactions.
	missed int
	// defLogCap bounds the donors' retained history (0: default).
	defLogCap int
	// donorsGone stops sites 0 and 1 before site 2 returns: it probes
	// peers that never answer.
	donorsGone bool
	// required is Start's join requirement.
	required bool

	wantErr   bool
	wantBase  int64
	wantMode  statex.Mode
	wantEpoch uint64
	// wantFallback expects a best-effort join to have recorded why it
	// cold-started.
	wantFallback bool
}

const before = 10

var lifeCases = []lifeCase{
	{name: "cold start",
		wantBase: 0, wantMode: 0, wantEpoch: 1},
	{name: "durable restart, no donor, best effort",
		durable: true, restart: true, donorsGone: true,
		wantBase: before, wantMode: 0, wantEpoch: 1, wantFallback: true},
	{name: "tail-only rejoin",
		durable: true, restart: true, missed: 5, required: true,
		wantBase: before, wantMode: statex.TailOnly, wantEpoch: 2},
	{name: "checkpoint+tail rejoin",
		durable: true, restart: true, missed: 150, defLogCap: 32, required: true,
		wantBase: before + 1 + 150, wantMode: statex.CheckpointTail, wantEpoch: 2},
	{name: "join required, no donor",
		durable: true, restart: true, donorsGone: true, required: true,
		wantErr: true},
}

// outcome is what a case leaves at site 2 — the tuple that must not
// depend on the transport.
type outcome struct {
	base     int64
	mode     statex.Mode
	epoch    uint64
	digest   uint64
	fallback bool
	failed   bool
}

func runLife(t *testing.T, c lifeCase, nw network, addrs map[transport.NodeID]string) outcome {
	t.Helper()
	defer nw.close()
	reg := testRegistry(t)
	dir := ""
	if c.durable {
		dir = t.TempDir()
	}
	config := func(i int) Config {
		cfg := Config{
			Endpoint:     nw.endpoint(t, i),
			Bootstrap:    member.Bootstrap(addrs),
			RoundTimeout: 50 * time.Millisecond,
			DefLogCap:    c.defLogCap,
			Replica:      db.Config{Registry: reg},
		}
		if i == 2 {
			cfg.Dir = dir
			cfg.Sync = wal.SyncNever
		}
		return cfg
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var sites [nSites]*Site
	defer func() {
		for _, s := range sites {
			if s != nil {
				s.Stop()
			}
		}
	}()
	for i := range sites {
		s, err := Open(config(i))
		if err != nil {
			t.Fatalf("open site %d: %v", i, err)
		}
		sites[i] = s
		if err := s.Start(ctx, nil, false); err != nil {
			t.Fatalf("cold start site %d: %v", i, err)
		}
	}
	incr := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sites[0].Replica.Exec(ctx, "incr"); err != nil {
				t.Fatalf("incr: %v", err)
			}
		}
	}
	caughtUp := func(i int) func() bool {
		return func() bool {
			return sites[i].Replica.LastTO() == sites[0].Replica.LastTO() &&
				sites[i].Replica.Store().Digest() == sites[0].Replica.Store().Digest()
		}
	}
	observe := func() outcome {
		s := sites[2]
		return outcome{base: s.Base, mode: s.Join.Mode, epoch: s.Tracker.Epoch(),
			digest: s.Replica.Store().Digest(), fallback: s.Join.Err != nil}
	}

	incr(before)
	testutil.Eventually(t, time.Minute, "site 2 to commit the first phase", caughtUp(2))
	if !c.restart {
		return observe()
	}

	downDigest := sites[2].Replica.Store().Digest()
	sites[2].Stop()
	nw.crash(2)
	if c.missed > 0 {
		next, err := sites[0].Tracker.Config().WithReplace(2, addrs[2])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sites[0].Replica.Exec(ctx, member.Proc, member.Encode(next)); err != nil {
			t.Fatalf("membership change: %v", err)
		}
		incr(c.missed)
		testutil.Eventually(t, time.Minute, "site 1 to commit what site 2 misses", caughtUp(1))
	}
	joinCtx := ctx
	if c.donorsGone {
		for i := 0; i < 2; i++ {
			sites[i].Stop()
			nw.crash(i)
		}
		// Nobody will answer; the deadline stands in for the probe
		// timeouts the policy would otherwise sit through.
		var cancelJoin context.CancelFunc
		joinCtx, cancelJoin = context.WithTimeout(ctx, time.Second)
		defer cancelJoin()
	}

	s, err := Open(config(2))
	if err != nil {
		t.Fatalf("reopen site 2: %v", err)
	}
	sites[2] = s
	if s.Base != before {
		t.Fatalf("site 2 recovered to %d, want %d", s.Base, before)
	}
	// The whole membership, as the daemon passes it: the site skips itself.
	err = s.Start(joinCtx, []transport.NodeID{0, 1, 2}, c.required)
	if c.wantErr {
		if err == nil {
			t.Fatal("Start succeeded with a required join and no donor")
		}
		// Start stopped the site: the durability handle is closed.
		if aerr := s.dur.Append(wal.Record{TOIndex: before + 1}); aerr == nil {
			t.Fatal("durability still open after a failed Start")
		}
		return outcome{failed: true}
	}
	if err != nil {
		t.Fatalf("restart site 2: %v", err)
	}
	if c.donorsGone {
		if got := s.Replica.Store().Digest(); got != downDigest {
			t.Fatalf("cold-started site 2 digest %x, want the recovered %x", got, downDigest)
		}
	} else {
		testutil.Eventually(t, time.Minute, "site 2 to catch up after the rejoin", caughtUp(2))
	}
	return observe()
}

// TestSiteLife runs every way a site comes to life over a memnet hub
// and over three tcpnet loopback nodes, and requires the same outcome
// from both.
func TestSiteLife(t *testing.T) {
	for _, c := range lifeCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			addrs := loopbackAddrs(t)
			mem := runLife(t, c, &memNetwork{hub: transport.NewHub(nSites)}, addrs)
			tcp := runLife(t, c, &tcpNetwork{addrs: addrs}, addrs)
			if mem != tcp {
				t.Fatalf("outcome depends on the transport:\n memnet %+v\n tcpnet %+v", mem, tcp)
			}
			want := outcome{base: c.wantBase, mode: c.wantMode, epoch: c.wantEpoch,
				digest: mem.digest, fallback: c.wantFallback, failed: c.wantErr}
			if mem != want {
				t.Fatalf("outcome %+v, want %+v", mem, want)
			}
		})
	}
}
