package lineproto

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"otpdb/internal/db"
	"otpdb/internal/events"
	"otpdb/internal/member"
	"otpdb/internal/metrics"
	"otpdb/internal/shard"
	"otpdb/internal/site"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// TestVerbTable pins the table to itself — unique names and aliases, a
// handler and a reply tag per verb, an argument grammar the arity check
// can read — and to its copies: the grammar block in cmd/otpd's package
// comment and in README §Multi-process is Grammar(), and otpcli frames
// replies through Continuation instead of naming verbs.
func TestVerbTable(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range Verbs {
		for _, name := range append([]string{v.Name}, v.Aliases...) {
			if name == "" || name != strings.ToUpper(name) || seen[name] {
				t.Errorf("verb %q: name %q empty, not upper case or duplicated", v.Name, name)
			}
			seen[name] = true
		}
		if v.run == nil {
			t.Errorf("verb %s has no handler", v.Name)
		}
		if v.Tag() == "" || v.Tag() == "ERR" {
			t.Errorf("verb %s: reply %q has no tag", v.Name, v.Reply)
		}
		for _, f := range strings.Fields(v.Args) {
			if !strings.HasPrefix(f, "<") && f != "[arg" && f != "...]" {
				t.Errorf("verb %s: argument grammar %q is not <word>... [arg ...]", v.Name, v.Args)
			}
		}
		fields := strings.Fields(v.Name)
		min, variadic := v.arity()
		for i := 0; i < min; i++ {
			if got, _, errReply := Lookup(fields); got != nil || errReply != v.usage() {
				t.Errorf("%v: got %v, %q; want the usage error %q", fields, got, errReply, v.usage())
			}
			fields = append(fields, "x")
		}
		if got, args, errReply := Lookup(fields); got == nil || got.Name != v.Name || len(args) != min {
			t.Errorf("%v: got %v, %v, %q", fields, got, args, errReply)
		}
		if got, _, errReply := Lookup(append(fields, "y")); (got != nil) != variadic {
			t.Errorf("%v + one argument: got %v, %q; variadic %v", fields, got, errReply, variadic)
		}
	}

	grammar := Grammar()
	daemon, err := os.ReadFile("../../cmd/otpd/main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(daemon), "\npackage main")
	var block []string
	for _, line := range strings.Split(doc, "\n") {
		if text, ok := strings.CutPrefix(line, "//\t"); ok && len(block) < strings.Count(grammar, "\n")+1 {
			block = append(block, text)
		}
	}
	if got := strings.Join(block, "\n"); got != grammar {
		t.Errorf("cmd/otpd package comment grammar:\n%s\ntable:\n%s", got, grammar)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Multi-process deployment")
	section, _, _ = strings.Cut(section, "\n## ")
	if !strings.Contains(section, "```\n"+grammar+"\n```") {
		t.Errorf("README §Multi-process has no fenced block equal to the table's grammar:\n%s", grammar)
	}
	cli, err := os.ReadFile("../../cmd/otpcli/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if src := string(cli); !strings.Contains(src, "lineproto.Continuation(") || !strings.Contains(src, "lineproto.Grammar()") ||
		strings.Contains(src, `"n="`) || strings.Contains(src, `"shards="`) {
		t.Error("otpcli must frame replies with lineproto.Continuation and print lineproto.Grammar(), not its own copies")
	}
}

func TestLookupErrors(t *testing.T) {
	for line, want := range map[string]string{
		"":                  "ERR empty command",
		"FOO":               "ERR unknown command FOO",
		"exec":              "ERR EXEC needs <procedure> [arg ...]",
		"WAIT":              "ERR WAIT needs <handle>",
		"WAIT a b":          "ERR WAIT needs <handle>",
		"STATS now":         "ERR STATS takes no arguments",
		"SHARD":             "ERR SHARD needs LIST | MAP <class>",
		"shard where":       "ERR unknown SHARD subcommand where",
		"SHARD MAP":         "ERR SHARD MAP needs <class>",
		"MEMBER":            "ERR MEMBER needs ADD <id> <addr> | REMOVE <id> | REPLACE <id> <addr>",
		"MEMBER ADD 3":      "ERR MEMBER ADD needs <id> <addr>",
		"MEMBER REMOVE 3 x": "ERR MEMBER REMOVE needs <id>",
	} {
		if v, _, got := Lookup(strings.Fields(line)); v != nil || got != want {
			t.Errorf("%q: got %v, %q; want %q", line, v, got, want)
		}
	}
	if v, args, _ := Lookup(strings.Fields("status")); v == nil || v.Name != "STATS" || len(args) != 0 {
		t.Errorf("status: got %v, %v", v, args)
	}
}

// testServer is an in-process otpd behind the protocol: one site, a
// single-member replica group per shard, the demo schema's shape (class
// p<i> on shard i mod shards, add-p<i>, xfer over p0 and p1, get).
func testServer(t testing.TB, shards int, ready bool) *Server {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := sproc.NewRegistry()
	smap, err := shard.NewMap(shards)
	must(err)
	for i := 0; i < 2; i++ {
		class := sproc.ClassID(fmt.Sprintf("p%d", i))
		must(smap.Pin(class, i%shards))
		must(reg.RegisterUpdate(sproc.Update{Name: "add-" + string(class), Class: class,
			Fn: func(ctx sproc.UpdateCtx) (storage.Value, error) {
				args := ctx.Args()
				if len(args) < 2 {
					return nil, fmt.Errorf("add needs key and delta")
				}
				key := storage.Key(storage.ValueString(args[0]))
				cur, _ := ctx.Read(key)
				next := storage.Int64Value(storage.ValueInt64(cur) + storage.ValueInt64(args[1]))
				return next, ctx.Write(key, next)
			}}))
	}
	must(reg.RegisterMulti(sproc.MultiUpdate{Name: "xfer", Classes: []sproc.ClassID{"p0", "p1"},
		Fn: func(ctx sproc.MultiUpdateCtx) (storage.Value, error) {
			args := ctx.Args()
			if len(args) < 2 {
				return nil, fmt.Errorf("xfer needs key and amount")
			}
			key, amt := storage.Key(storage.ValueString(args[0])), storage.ValueInt64(args[1])
			src, _ := ctx.Read("p0", key)
			dst, _ := ctx.Read("p1", key)
			next := storage.Int64Value(storage.ValueInt64(src) - amt)
			if err := ctx.Write("p0", key, next); err != nil {
				return nil, err
			}
			return next, ctx.Write("p1", key, storage.Int64Value(storage.ValueInt64(dst)+amt))
		}}))
	must(reg.RegisterQuery(sproc.Query{Name: "get", Fn: func(ctx sproc.QueryCtx) (storage.Value, error) {
		args := ctx.Args()
		if len(args) < 2 {
			return nil, fmt.Errorf("get needs class and key")
		}
		v, _ := ctx.Read(sproc.ClassID(storage.ValueString(args[0])), storage.Key(storage.ValueString(args[1])))
		return v, nil
	}}))
	must(member.RegisterProc(reg))

	registry := metrics.NewRegistry()
	trace := metrics.NewTraceRing(256)
	hub := shard.NewHub(shard.Config{})
	must(hub.Register(reg))
	srv := NewServer(Config{
		Registry: reg, Map: smap,
		Coordinator: shard.NewCoordinator(hub, smap, reg, shard.CoordConfig{Trace: trace}),
		Metrics:     registry, Trace: trace, Events: events.NewRecorder(64),
	})
	if !ready {
		return srv
	}
	for g, st := range srv.Shards {
		hub.Attach(g, func() *db.Replica { return st.Rep.Load() })
		network := transport.NewHub(1)
		t.Cleanup(network.Close)
		s, err := site.Open(site.Config{
			Endpoint:  network.Endpoint(0),
			Bootstrap: member.Bootstrap(map[transport.NodeID]string{0: "127.0.0.1:9000"}),
			Replica:   db.Config{Registry: reg, Trace: trace, Shard: g},
			Metrics:   registry.Scope("shard", strconv.Itoa(g), "site", "0"),
		})
		must(err)
		t.Cleanup(s.Stop)
		must(s.Start(context.Background(), nil, false))
		st.Tracker.Store(s.Tracker)
		st.Site.Store(s)
		st.Rep.Store(s.Replica)
	}
	hub.Start()
	t.Cleanup(hub.Stop)
	srv.Ready()
	return srv
}

func (s *Server) conn() *Conn { return &Conn{srv: s, pending: make(map[string]chan string)} }

// TestReplyShapes holds every verb's reply to its shape at -shards 1 and
// -shards 2 (the black-box smoke tests of cmd/otpd check the same lines
// over TCP for the verbs they use).
func TestReplyShapes(t *testing.T) {
	const stats = `commits=\d+ aborts=0 reorders=0 pending=0 to=\d+ recovered=0 epoch=1 members=1 role=serving`
	const ok = `OK value=-?\d+ to=\d+ outcome=fastpath latency=\S+`
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			c := testServer(t, shards, true).conn()
			sharded := shards > 1
			pick := func(single, multi string) string {
				if sharded {
					return multi
				}
				return single
			}
			lastID := "" // the handle the latest SUBMIT returned
			for _, step := range []struct{ line, want string }{
				{"EXEC add-p0 k 5", ok},
				{"exec add-p1 k 7", ok},
				{"SUBMIT add-p0 k 1", pick(`ID 0\.\d+`, `ID 0\.0\.\d+`)},
				{"WAIT $ID", `OK value=6 to=\d+ outcome=fastpath latency=\S+`},
				{"WAIT $ID", `ERR unknown handle \S+ \(SUBMIT on this connection first\)`},
				{"EXEC xfer k 2", pick(ok, ok+` shard=0 xto=0:\d+,1:\d+ trace=tx\S+`)},
				{"SUBMIT xfer k 1", pick(`ID 0\.\d+`, `ID x\.2`)},
				{"WAIT $ID", pick(`OK value=3 .+`, `OK value=3 .+ shard=0 xto=0:\d+,1:\d+ trace=tx\S+`)},
				{"QUERY get p0 k", `VALUE 3`},
				{"QUERY get p1 k", `VALUE 10`},
				{"QUERY nope", `ERR .*unknown.*nope`},
				{"EXEC get p0 k", `ERR .+`},
				{"STATS", pick(`STATS `+stats, `STATS shards=2 `+stats+`\nSHARD id=0 `+stats+`\nSHARD id=1 `+stats)},
				{"STATUS", pick(`STATS `+stats, `STATS shards=2 `+stats+`(\nSHARD id=\d `+stats+`){2}`)},
				{"DIGEST", pick(`DIGEST [0-9a-f]{16}`, `DIGEST [0-9a-f]{16} [0-9a-f]{16}`)},
				{"SHARD LIST", fmt.Sprintf(`SHARDS n=%d version=2`, shards)},
				{"SHARD MAP p1", fmt.Sprintf(`SHARD class=p1 id=%d`, 1%shards)},
				{"METRICS", `METRICS n=\d+(\n\S+ .+)+`},
				// At least two spans, one of them submit: the origin's own
				// copy may be Opt-delivered before the submit span is stamped.
				{"TRACE 0.1", `TRACE n=\d+((\n\{.+\})+\n\{.*"span":"submit".*\}(\n\{.+\})*|\n\{.*"span":"submit".*\}(\n\{.+\})+)`},
				{"TRACE nothing", `TRACE n=0`},
				{"MEMBER REPLACE x h:1", `ERR bad site id x`},
				{"MEMBER REPLACE 0 nowhere", `ERR shard 0: address "nowhere": .+`},
				{"MEMBER REPLACE 0 127.0.0.1:9100", `OK epoch=2 members=1 to=\d+`},
				{"MEMBER REMOVE 7", `ERR shard 0: .+`},
				{"WATCH", `WATCH streaming`},
			} {
				step.line = strings.ReplaceAll(step.line, "$ID", lastID)
				got := c.handle(step.line)
				if id, ok := strings.CutPrefix(got, "ID "); ok {
					lastID = id
				}
				if !regexp.MustCompile(`^(?:` + step.want + `)$`).MatchString(got) {
					t.Errorf("%s\n got: %s\nwant: %s", step.line, got, step.want)
				}
				v, _, _ := Lookup(strings.Fields(step.line))
				first, rest, _ := strings.Cut(got, "\n")
				if n := Continuation(v, first); n != strings.Count(got, "\n") {
					t.Errorf("%s: first line %q announces %d more lines, reply has %q", step.line, first, n, rest)
				}
			}
			if !c.watching {
				t.Error("WATCH did not switch the connection to push mode")
			}
			if sharded {
				if tr := c.srv.Shards[1].Tracker.Load().Config(); tr.Addrs()[0] != "127.0.0.1:9101" {
					t.Errorf("MEMBER REPLACE placed shard 1's member at %v, want port + 1", tr.Addrs())
				}
			}
		})
	}
}

// TestJoiningReplicaAnswersBadInputAtOnce: on a server whose replicas
// never come up, a malformed line gets its error immediately and only a
// well-formed command that needs the replica waits.
func TestJoiningReplicaAnswersBadInputAtOnce(t *testing.T) {
	c := testServer(t, 1, false).conn()
	start := time.Now()
	for line, want := range map[string]string{
		"FOO":          "ERR unknown command FOO",
		"EXEC":         "ERR EXEC needs <procedure> [arg ...]",
		"WAIT":         "ERR WAIT needs <handle>",
		"WAIT 0.1":     "ERR unknown handle 0.1 (SUBMIT on this connection first)",
		"MEMBER ADD 1": "ERR MEMBER ADD needs <id> <addr>",
		"SHARD MAP p0": "SHARD class=p0 id=0",
		"STATS":        "STATS commits=0 aborts=0 reorders=0 pending=0 to=0 recovered=0 epoch=0 members=0 role=joining",
		"TRACE 0.1":    "TRACE n=0",
	} {
		if got := c.handle(line); got != want {
			t.Errorf("%q: got %q, want %q", line, got, want)
		}
	}
	if d := time.Since(start); d > replyWait/10 {
		t.Fatalf("a joining replica took %v to refuse bad input", d)
	}
	c.srv.wait = 30 * time.Millisecond
	start = time.Now()
	for _, line := range []string{"EXEC add-p0 k 1", "QUERY get p0 k", "DIGEST", "MEMBER REMOVE 2"} {
		if got := c.handle(line); got != "ERR replica still joining" {
			t.Errorf("%q: got %q", line, got)
		}
	}
	if d := time.Since(start); d < 4*c.srv.wait {
		t.Fatalf("four commands that need the replica waited %v in all, want the reply wait each", d)
	}
}

func TestPendingHandlesAreCapped(t *testing.T) {
	srv := testServer(t, 1, false)
	srv.Ready() // no replica: a routed SUBMIT fails, which is all this needs
	c := srv.conn()
	for i := 0; i < maxPending; i++ {
		c.pending[fmt.Sprint("h", i)] = make(chan string, 1)
	}
	if got := c.handle("SUBMIT add-p0 k 1"); got != "ERR too many pending (WAIT some first)" {
		t.Fatalf("SUBMIT over the cap: %q", got)
	}
	if len(c.pending) != maxPending {
		t.Fatalf("%d handles after a refused SUBMIT", len(c.pending))
	}
	// Replies that are in but were never WAITed for make room.
	c.pending["h0"] <- "OK"
	c.pending["h1"] <- "OK"
	if got := c.handle("SUBMIT add-p0 k 1"); got != "ERR shard 0 still joining" {
		t.Fatalf("SUBMIT after two handles resolved: %q", got)
	}
	if len(c.pending) != maxPending-2 {
		t.Fatalf("%d handles left, want the two resolved ones forgotten", len(c.pending))
	}
	if got := c.handle("WAIT h0"); !strings.HasPrefix(got, "ERR unknown handle") {
		t.Fatalf("WAIT for a forgotten handle: %q", got)
	}
}

func TestLineTooLongIsAnsweredThenClosed(t *testing.T) {
	client, server := net.Pipe()
	go testServer(t, 1, false).Serve(server)
	go func() {
		_, _ = fmt.Fprintf(client, "SHARD LIST\nEXEC add-p0 %s 1\nSHARD LIST\n", strings.Repeat("k", maxLine))
	}()
	_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(client)
	for _, want := range []string{"SHARDS n=1 version=2\n", "ERR line too long\n"} {
		if got, err := r.ReadString('\n'); got != want {
			t.Fatalf("got %q, %v; want %q", got, err, want)
		}
	}
	if got, err := r.ReadString('\n'); err == nil {
		t.Fatalf("the connection stayed open after an over-long line: %q", got)
	}
}
