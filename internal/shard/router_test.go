package shard_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"otpdb/internal/db"
	"otpdb/internal/member"
	"otpdb/internal/shard"
	"otpdb/internal/site"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// world is one site hosting a single-member replica group per shard —
// class "a" pinned to shard 0, "b" to shard 1 — behind a Router.
type world struct {
	reg    *sproc.Registry
	sites  []*site.Site
	down   []bool // shard g's getter returns nil: the site is "still joining" there
	router *shard.Router

	afterRead func() // called by the queries after each of their reads
}

var errProc = errors.New("procedure failed")

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{reg: sproc.NewRegistry(), down: make([]bool, 2), afterRead: func() {}}
	incr := func(ctx sproc.UpdateCtx) (storage.Value, error) {
		cur, _ := ctx.Read("n")
		next := storage.Int64Value(storage.ValueInt64(cur) + 1)
		return next, ctx.Write("n", next)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.reg.RegisterUpdate(sproc.Update{Name: "incA", Class: "a", Fn: incr}))
	must(w.reg.RegisterUpdate(sproc.Update{Name: "incB", Class: "b", Fn: incr}))
	must(w.reg.RegisterMulti(sproc.MultiUpdate{Name: "both", Classes: []sproc.ClassID{"a", "b"},
		Fn: func(ctx sproc.MultiUpdateCtx) (storage.Value, error) {
			for _, class := range []sproc.ClassID{"a", "b"} {
				cur, _ := ctx.Read(class, "n")
				if err := ctx.Write(class, "n", storage.Int64Value(storage.ValueInt64(cur)+1)); err != nil {
					return nil, err
				}
			}
			return storage.Int64Value(2), nil
		}}))
	query := func(name string, fail bool, classes ...sproc.ClassID) {
		must(w.reg.RegisterQuery(sproc.Query{Name: name, Fn: func(ctx sproc.QueryCtx) (storage.Value, error) {
			var sum int64
			for _, class := range classes {
				v, _ := ctx.Read(class, "n")
				sum += storage.ValueInt64(v)
				w.afterRead()
			}
			if fail {
				return nil, errProc
			}
			return storage.Int64Value(sum), nil
		}}))
	}
	query("readA", false, "a")
	query("sum", false, "a", "b")
	query("failAfterA", true, "a")
	must(member.RegisterProc(w.reg))

	smap, err := shard.NewMap(2)
	must(err)
	must(smap.Pin("a", 0))
	must(smap.Pin("b", 1))
	hub := shard.NewHub(shard.Config{})
	must(hub.Register(w.reg))
	locals := make([]shard.Local, 2)
	for g := range locals {
		net := transport.NewHub(1)
		t.Cleanup(net.Close)
		s, err := site.Open(site.Config{
			Endpoint:  net.Endpoint(0),
			Bootstrap: member.Bootstrap(map[transport.NodeID]string{0: ""}),
			Replica:   db.Config{Registry: w.reg, Shard: g},
		})
		must(err)
		t.Cleanup(s.Stop)
		must(s.Start(context.Background(), nil, false))
		w.sites = append(w.sites, s)
		locals[g] = func() (*db.Replica, *member.Tracker) {
			if w.down[g] {
				return nil, nil
			}
			return s.Replica, s.Tracker
		}
		hub.Attach(g, func() *db.Replica { rep, _ := locals[g](); return rep })
	}
	hub.Start()
	t.Cleanup(hub.Stop)
	w.router = shard.NewRouter(w.reg, smap, shard.NewCoordinator(hub, smap, w.reg, shard.CoordConfig{}), locals)
	return w
}

// delivered reports how many transactions each shard's scheduler has
// been handed: anything broadcast shows up here.
func (w *world) delivered() [2]uint64 {
	return [2]uint64{
		w.sites[0].Replica.Manager().Stats().OptDelivered,
		w.sites[1].Replica.Manager().Stats().OptDelivered,
	}
}

func (w *world) openSnaps() [2]int {
	return [2]int{w.sites[0].Replica.OpenSnaps(), w.sites[1].Replica.OpenSnaps()}
}

type outcome struct {
	res shard.Result
	err error
}

func TestRouterSubmit(t *testing.T) {
	w := newWorld(t)
	for _, tc := range []struct {
		name      string
		proc      string
		down      int // shard whose getter returns nil, or -1
		wantErr   string
		wantShard int     // as Submit returns it; -1: the coordinator's
		wantMoved [2]bool // which shards' schedulers saw a delivery
		check     func(*testing.T, shard.Result)
	}{
		{name: "single-shard procedure goes to the owning replica", proc: "incB", down: -1,
			wantShard: 1, wantMoved: [2]bool{false, true},
			check: func(t *testing.T, res shard.Result) {
				if res.Shard != 1 || res.TOIndex != 1 || res.ShardTO != nil || res.Trace != "" || res.Outcome != shard.FastPath {
					t.Errorf("result %+v", res)
				}
			}},
		{name: "spanning procedure goes to the coordinator", proc: "both", down: -1,
			wantShard: -1, wantMoved: [2]bool{true, true},
			check: func(t *testing.T, res shard.Result) {
				if res.Shard != 0 || len(res.ShardTO) != 2 || res.TOIndex != res.ShardTO[0].TOIndex ||
					res.Outcome != shard.FastPath || storage.ValueInt64(res.Value) != 2 || res.Latency <= 0 {
					t.Errorf("result %+v", res)
				}
			}},
		{name: "unknown procedure fails before anything is broadcast", proc: "nope", down: -1,
			wantErr: sproc.ErrUnknownProc.Error()},
		{name: "a shard whose getter returns nil is still joining", proc: "incB", down: 1,
			wantErr: "shard 1 still joining"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.down >= 0 {
				w.down[tc.down] = true
				defer func() { w.down[tc.down] = false }()
			}
			before := w.delivered()
			done := make(chan outcome, 1)
			id, g, err := w.router.Submit(tc.proc, nil, func(res shard.Result, err error) { done <- outcome{res, err} })
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Submit error %v, want %q", err, tc.wantErr)
				}
				if after := w.delivered(); after != before {
					t.Fatalf("deliveries moved %v -> %v on a refused submit", before, after)
				}
				select {
				case o := <-done:
					t.Fatalf("done called on a refused submit: %+v", o)
				case <-time.After(20 * time.Millisecond):
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g != tc.wantShard || (g < 0) != (id.Seq == 0) {
				t.Fatalf("Submit returned id %v shard %d, want shard %d", id, g, tc.wantShard)
			}
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				tc.check(t, o.res)
			case <-time.After(10 * time.Second):
				t.Fatal("transaction never resolved")
			}
			after := w.delivered()
			for s := range after {
				if moved := after[s] > before[s]; moved != tc.wantMoved[s] {
					t.Errorf("shard %d deliveries %d -> %d, moved want %v", s, before[s], after[s], tc.wantMoved[s])
				}
			}
		})
	}
}

func TestRouterQuerySnapshots(t *testing.T) {
	for _, tc := range []struct {
		name       string
		proc       string
		stop       int      // shard whose replica is stopped first, or -1
		wantDuring [][2]int // open snapshots per shard after each of the query's reads
		wantErr    error
	}{
		{name: "one touched shard opens one snapshot", proc: "readA", stop: -1, wantDuring: [][2]int{{1, 0}}},
		{name: "each shard's opens at its first read", proc: "sum", stop: -1, wantDuring: [][2]int{{1, 0}, {1, 1}}},
		{name: "procedure error", proc: "failAfterA", stop: -1, wantDuring: [][2]int{{1, 0}}, wantErr: errProc},
		{name: "snapshot error", proc: "sum", stop: 1, wantDuring: [][2]int{{1, 0}, {1, 0}}, wantErr: db.ErrStopped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			if tc.stop >= 0 {
				w.sites[tc.stop].Replica.Stop()
			}
			var during [][2]int
			w.afterRead = func() { during = append(during, w.openSnaps()) }
			_, err := w.router.Query(context.Background(), tc.proc)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Query error %v, want %v", err, tc.wantErr)
			}
			if !slices.Equal(during, tc.wantDuring) {
				t.Errorf("open snapshots after each read %v, want %v", during, tc.wantDuring)
			}
			if after := w.openSnaps(); after != [2]int{} {
				t.Errorf("open snapshots after the query %v, want none", after)
			}
		})
	}
	t.Run("both shards read", func(t *testing.T) {
		w := newWorld(t)
		for _, proc := range []string{"incA", "incB", "incB"} {
			done := make(chan error, 1)
			if _, _, err := w.router.Submit(proc, nil, func(_ shard.Result, err error) { done <- err }); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		v, err := w.router.Query(context.Background(), "sum")
		if err != nil || storage.ValueInt64(v) != 3 {
			t.Fatalf("sum = %d, %v; want 3", storage.ValueInt64(v), err)
		}
	})
}

func TestRouterProposeMember(t *testing.T) {
	w := newWorld(t)
	addr := func(g int) string { return "host:" + string(rune('0'+g)) }
	next, to, err := w.router.ProposeMember(context.Background(), func(g int, cur member.Config) (member.Config, error) {
		return cur.WithReplace(0, addr(g))
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := next.Site(0); next.Epoch != 2 || m.Addr != addr(0) || to != 1 {
		t.Fatalf("shard 0 committed %v at %d", next, to)
	}
	for g, s := range w.sites {
		cfg := s.Tracker.Config()
		if m, _ := cfg.Site(0); cfg.Epoch != 2 || m.Addr != addr(g) {
			t.Errorf("shard %d configuration %v", g, cfg)
		}
	}
	w.down[1] = true
	_, _, err = w.router.ProposeMember(context.Background(), func(_ int, cur member.Config) (member.Config, error) {
		return cur.WithReplace(0, "elsewhere:1")
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1 still joining") {
		t.Fatalf("error %v, want shard 1 still joining", err)
	}
	if e := w.sites[0].Tracker.Epoch(); e != 3 {
		t.Fatalf("shard 0 epoch %d: shards commit in order, so shard 0 moved before shard 1 refused", e)
	}
}
