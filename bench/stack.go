package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/recovery"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// stack is the hand-assembled replica stack: transport → consensus.New →
// abcast.NewOptimistic → db.New, three sites in one process, over memnet
// or a tcpnet loopback mesh, optionally with a write-ahead log. It exists for two
// reasons: the facade cannot run over TCP, and the traced run needs seams
// between the layers to put its decorators in (tr != nil).
type stack struct {
	site  [sites]stackSite
	tr    *tracer
	stops []func()
}

type stackSite struct {
	opt *abcast.Optimistic
	rep *db.Replica
}

// registerWire makes the layers' message types known to tcpnet's gob
// codec, once per process.
var registerWire sync.Once

func registerWireTypes() {
	consensus.RegisterWire()
	abcast.RegisterWire()
	db.RegisterWire()
}

// loopbackAddrs reserves one free loopback port per node. The listeners
// are closed before tcpnet binds the ports again.
func loopbackAddrs(n int) (map[transport.NodeID]string, error) {
	addrs := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// listenMesh starts n tcpnet nodes on loopback. tcpnet wants every node's
// address before the first one listens, so the ports are reserved, released
// and bound again; another process can take one in between (tests of other
// packages run beside the smoke test), and then the whole mesh is formed
// again on fresh ports.
func listenMesh(n int) ([]*transport.TCPNode, error) {
	registerWire.Do(registerWireTypes)
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addrs, err := loopbackAddrs(n)
		if err != nil {
			return nil, err
		}
		nodes := make([]*transport.TCPNode, 0, n)
		for i := 0; i < n; i++ {
			// Peers that are not listening yet are redialled; a short
			// retry keeps mesh formation out of the set-up time.
			node, err := transport.ListenTCP(transport.TCPConfig{
				ID: transport.NodeID(i), Addrs: addrs, DialRetry: 5 * time.Millisecond})
			if err != nil {
				lastErr = err
				break
			}
			nodes = append(nodes, node)
		}
		if len(nodes) == n {
			return nodes, nil
		}
		for _, node := range nodes {
			_ = node.Close()
		}
	}
	return nil, lastErr
}

// startStack builds, seeds and starts the three sites. dir is the
// durability root when w.wal.
func startStack(w *workload, seed int64, dir string, tr *tracer) (_ *stack, err error) {
	st := &stack{tr: tr}
	defer func() {
		if err != nil {
			st.stop()
		}
	}()
	eps := make([]transport.Endpoint, sites)
	if w.tcp {
		nodes, err := listenMesh(sites)
		if err != nil {
			return nil, err
		}
		for i, node := range nodes {
			st.stops = append(st.stops, func() { _ = node.Close() })
			eps[i] = node
		}
	} else {
		opts := []transport.MemOption{transport.WithSeed(seed)}
		if w.delay > 0 {
			opts = append(opts, transport.WithDelay(w.delay))
		}
		if w.jitter > 0 {
			opts = append(opts, transport.WithJitter(w.jitter))
		}
		hub := transport.NewHub(sites, opts...)
		st.stops = append(st.stops, hub.Close)
		copy(eps, hub.Endpoints())
	}
	for i := range st.site {
		ep := eps[i]
		if tr != nil {
			ep = &tracedEndpoint{Endpoint: ep, t: tr}
		}
		var wrap func(sproc.UpdateFn) sproc.UpdateFn
		if tr != nil {
			wrap = tr.wrapFn(i)
		}
		// One registry per site so the traced Fn knows where it runs.
		reg := sproc.NewRegistry()
		ups, q := procedures(wrap)
		for _, u := range ups {
			if err := reg.RegisterUpdate(u); err != nil {
				return nil, err
			}
		}
		if err := reg.RegisterQuery(q); err != nil {
			return nil, err
		}
		store := storage.NewStore()
		seedVal := seedValue()
		for _, class := range classNames {
			for _, key := range keyNames {
				store.Load(storage.Partition(class), key, seedVal)
			}
		}
		var dur *recovery.Durability
		base := int64(0)
		if w.wal {
			dur, err = recovery.Open(filepath.Join(dir, "site-"+strconv.Itoa(i)),
				recovery.Options{Sync: walSync, CheckpointEvery: -1})
			if err != nil {
				return nil, err
			}
			if base, err = dur.Recover(store); err != nil {
				_ = dur.Close()
				return nil, err
			}
		}
		cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 100 * time.Millisecond})
		cons.Start()
		opt := abcast.NewOptimistic(ep, cons, abcast.WithDefBase(uint64(base)))
		var bc abcast.Broadcaster = opt
		if tr != nil {
			bc = newTracedBroadcaster(opt, tr, i)
		}
		if err := bc.Start(); err != nil {
			cons.Stop()
			return nil, err
		}
		rep, err := db.New(db.Config{ID: transport.NodeID(i), Broadcast: bc, Registry: reg,
			Store: store, Durability: dur, InitialTOIndex: base})
		if err != nil {
			_ = bc.Stop()
			cons.Stop()
			return nil, err
		}
		rep.Start()
		st.site[i] = stackSite{opt: opt, rep: rep}
		// The replica owns dur and closes it in Stop.
		st.stops = append(st.stops, func() { rep.Stop(); _ = bc.Stop(); cons.Stop() })
	}
	return st, nil
}

func (st *stack) stop() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
}

func (st *stack) submit(site int, s *slot) error {
	if s.notify == nil {
		s.ch = make(chan db.CommitResult, 1)
		s.notify = func(r db.CommitResult) {
			s.commitAt.Store(int64(time.Since(s.start)))
			if s.span != nil {
				s.span.commit.Store(st.tr.now())
			}
			s.ch <- r
		}
	}
	s.span = nil
	if st.tr != nil {
		s.span = st.tr.begin(site, &s.o, s.start)
	}
	_, err := st.site[site].rep.SubmitNotify(procNames[s.o.class], s.o.args(), s.notify)
	return err
}

func (st *stack) wait(ctx context.Context, s *slot) (ack, error) {
	select {
	case r := <-s.ch:
		if s.span != nil {
			s.span.acked.Store(st.tr.now())
		}
		if r.Err != nil {
			return ack{}, r.Err
		}
		return ack{counter: storage.ValueInt64(r.Info.Value), inner: time.Duration(s.commitAt.Load())}, nil
	case <-ctx.Done():
		return ack{}, ctx.Err()
	}
}

func (st *stack) exec(ctx context.Context, site int, s *slot) (ack, error) {
	if err := st.submit(site, s); err != nil {
		return ack{}, err
	}
	return st.wait(ctx, s)
}

func (st *stack) query(ctx context.Context, site, group int) (int64, error) {
	v, err := st.site[site].rep.Query(ctx, scanProc, groupArgs[group])
	return storage.ValueInt64(v), err
}

func (st *stack) counter(site, class, key int) (int64, error) {
	v, _ := st.site[site].rep.Store().Get(storage.Partition(classNames[class]), keyNames[key])
	return storage.ValueInt64(v), nil
}

func (st *stack) digest(site int) (uint64, error) {
	return st.site[site].rep.Store().Digest(), nil
}

func (st *stack) checkInvariants() error {
	for i := range st.site {
		if err := st.site[i].rep.Manager().CheckInvariants(); err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
	}
	return nil
}

// lastIndex counts commits, like the facade's: the stack always starts on
// an empty data directory, so commits and definitive indexes coincide.
func (st *stack) lastIndex(site int) (int64, error) {
	return int64(st.site[site].rep.Manager().Stats().Commits), nil
}

func (st *stack) aborts() uint64 {
	var n uint64
	for i := range st.site {
		n += st.site[i].rep.Manager().Stats().Aborts
	}
	return n
}
