package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/otp"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
	"otpdb/internal/wal"
)

// Layer cells: each drives one layer alone through its public functions
// for a fixed number of operations and reports time and allocations per
// operation. They move only when that layer's code moves, which is what
// lets a change in an end-to-end number be pinned on a layer.

// cellOps are the full-size operation counts; scale shrinks them for the
// smoke test.
type cellOps struct {
	decide, schedule, storeCommit, snapshotRead, walAppend, memRTT, tcpRTT, tcpStream int
}

var fullCells = cellOps{decide: 3000, schedule: 40000, storeCommit: 40000, snapshotRead: 400000,
	walAppend: 40000, memRTT: 10000, tcpRTT: 3000, tcpStream: 40000}

func (c cellOps) scaled(div int) cellOps {
	s := func(n int) int { return max(n/div, 8) }
	return cellOps{s(c.decide), s(c.schedule), s(c.storeCommit), s(c.snapshotRead), s(c.walAppend),
		s(c.memRTT), s(c.tcpRTT), s(c.tcpStream)}
}

// perOp times fn, which performs n operations, and returns time and
// allocations per operation. Allocations are the whole process's, so they
// include the goroutines a layer runs in the background.
func perOp(n int, fn func() error) (time.Duration, float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n), err
}

func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// runCells runs every cell and returns their metrics. dir is scratch
// space for the WAL cells.
func runCells(ops cellOps, seed int64, dir string) (map[string]metric, error) {
	out := make(map[string]metric)
	gen := newGenerator(seed, 100)
	for _, cell := range []func(cellOps, *generator, string, map[string]metric) error{
		cellConsensus, cellSchedule, cellStorage, cellWAL, cellMemRTT, cellTCP,
	} {
		if err := cell(ops, gen, dir, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cellConsensus: three engines on a zero-delay hub, every site proposes,
// time from Propose to the decision arriving at the proposer.
func cellConsensus(ops cellOps, _ *generator, _ string, out map[string]metric) error {
	hub := transport.NewHub(sites)
	defer hub.Close()
	var engines [sites]*consensus.Engine
	for i := range engines {
		engines[i] = consensus.New(consensus.Config{Endpoint: hub.Endpoint(transport.NodeID(i)),
			RoundTimeout: 100 * time.Millisecond})
		engines[i].Start()
		defer engines[i].Stop()
	}
	d, allocs, err := perOp(ops.decide, func() error {
		for inst := uint64(1); inst <= uint64(ops.decide); inst++ {
			for _, e := range engines {
				if err := e.Propose(inst, inst); err != nil {
					return err
				}
			}
			for dec := range engines[0].Decisions() {
				if dec.Instance == inst {
					break
				}
			}
		}
		return nil
	})
	out["consensus.decide_us"] = metric{usec(d), "us"}
	out["consensus.decide_allocs"] = metric{allocs, "count"}
	return err
}

// stubExecutor completes every execution on the spot, so the cell times
// the scheduler alone.
type stubExecutor struct{ mgr *otp.MultiManager }

func (e *stubExecutor) Submit(tx *otp.MultiTxn, epoch int) { e.mgr.OnExecuted(tx.ID, epoch) }
func (e *stubExecutor) Abort(*otp.MultiTxn)                {}
func (e *stubExecutor) Commit(*otp.MultiTxn)               {}

// cellSchedule: opt-deliver → executed → TO-deliver → commit through the
// MultiManager, 8 classes, the definitive order swapping 5 % of
// neighbours against the tentative one.
func cellSchedule(ops cellOps, gen *generator, _ string, out map[string]metric) error {
	exec := &stubExecutor{}
	mgr := otp.NewMultiManager(exec, otp.MultiHooks{})
	exec.mgr = mgr
	const batch = 64
	classes := make([][]otp.ClassID, numClasses)
	for c := range classes {
		classes[c] = []otp.ClassID{otp.ClassID(classNames[c])}
	}
	n := ops.schedule / batch * batch
	pick := make([]int, n)
	swap := make([]bool, n)
	for i := range pick {
		pick[i] = gen.rng.Intn(numClasses)
		swap[i] = gen.rng.Intn(100) < 5
	}
	d, allocs, err := perOp(n, func() error {
		var order [batch]abcast.MsgID
		for base := 0; base < n; base += batch {
			for i := range order {
				order[i] = abcast.MsgID{Origin: 0, Seq: uint64(base + i + 1)}
				if err := mgr.OnOptDeliver(order[i], classes[pick[base+i]], nil); err != nil {
					return err
				}
			}
			for i := 0; i+1 < batch; i += 2 {
				if swap[base+i] {
					order[i], order[i+1] = order[i+1], order[i]
				}
			}
			for _, id := range order {
				if err := mgr.OnTODeliver(id); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil && mgr.Pending() != 0 {
		err = fmt.Errorf("schedule cell: %d transactions left pending", mgr.Pending())
	}
	out["otp.schedule_us"] = metric{usec(d), "us"}
	out["otp.schedule_allocs"] = metric{allocs, "count"}
	return err
}

// cellStorage: the read-modify-write put() performs, straight against the
// store; then snapshot reads against a 1000-version chain.
func cellStorage(ops cellOps, gen *generator, _ string, out map[string]metric) error {
	store := storage.NewStore()
	for _, class := range classNames {
		for _, key := range keyNames {
			store.Load(storage.Partition(class), key, seedValue())
		}
	}
	var o op
	d, allocs, err := perOp(ops.storeCommit, func() error {
		for i := 1; i <= ops.storeCommit; i++ {
			gen.next(&o)
			tx, err := store.Begin(storage.Partition(classNames[o.class]), storage.Buffered)
			if err != nil {
				return err
			}
			old, _ := tx.Read(keyNames[o.key])
			next := make(storage.Value, valueLen)
			copy(next, old[:8])
			copy(next[8:], o.payload)
			if err := tx.Write(keyNames[o.key], next); err != nil {
				return err
			}
			if err := tx.Commit(int64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["storage.commit_us"] = metric{usec(d), "us"}
	out["storage.commit_allocs"] = metric{allocs, "count"}

	const chain = 1000
	deep := storage.NewStore()
	for i := int64(1); i <= chain; i++ {
		tx, err := deep.Begin("p", storage.Buffered)
		if err != nil {
			return err
		}
		if err := tx.Write("k", storage.Int64Value(i)); err != nil {
			return err
		}
		if err := tx.Commit(i); err != nil {
			return err
		}
	}
	at := make([]int64, 1024)
	for i := range at {
		at[i] = int64(gen.rng.Intn(chain)) + 1
	}
	start := time.Now()
	for i := 0; i < ops.snapshotRead; i++ {
		if _, ok := deep.SnapshotRead("p", "k", at[i%len(at)]); !ok {
			return fmt.Errorf("snapshot read cell: no version at %d", at[i%len(at)])
		}
	}
	out["storage.snapshot_read_ns"] = metric{float64(time.Since(start)) / float64(ops.snapshotRead), "ns"}
	return nil
}

// cellWAL: Log.Append of the record one put() produces, under the flush
// policy wal_restart runs with.
func cellWAL(ops cellOps, gen *generator, dir string, out map[string]metric) error {
	log, err := wal.Open(filepath.Join(dir, "wal-cell"), wal.Options{Sync: walSync})
	if err != nil {
		return err
	}
	var o op
	d, _, err := perOp(ops.walAppend, func() error {
		for i := 1; i <= ops.walAppend; i++ {
			gen.next(&o)
			value := make(storage.Value, valueLen)
			copy(value[8:], o.payload)
			rec := wal.Record{TOIndex: int64(i), Writes: []storage.ClassKeyValue{{
				Partition: storage.Partition(classNames[o.class]), Key: keyNames[o.key], Value: value}}}
			if err := log.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	out["wal.append_us"] = metric{usec(d), "us"}
	return err
}

const cellStream = "bench"

// wireMsgs are what the transport cells carry: the broadcast layer's data
// message around a put request, i.e. what a commit puts on the wire. The
// cells cycle through a small set of them.
func wireMsgs(gen *generator) []abcast.DataMsg {
	msgs := make([]abcast.DataMsg, 64)
	for i := range msgs {
		var o op
		gen.next(&o)
		msgs[i] = abcast.DataMsg{ID: abcast.MsgID{Origin: 0, Seq: uint64(i + 1)},
			Payload: sproc.Request{Proc: procNames[o.class], Args: o.args()}}
	}
	return msgs
}

// pingPong bounces n messages between two endpoints and returns the
// round-trip time.
func pingPong(a, b transport.Endpoint, gen *generator, n int) (time.Duration, error) {
	inA, inB := a.Subscribe(cellStream), b.Subscribe(cellStream)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			env := <-inB
			if err := b.Send(a.ID(), cellStream, env.Msg); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	msgs := wireMsgs(gen)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(b.ID(), cellStream, msgs[i%len(msgs)]); err != nil {
			return 0, err
		}
		select {
		case <-inA:
		case <-time.After(ackTimeout):
			return 0, fmt.Errorf("transport cell: no echo within %v", ackTimeout)
		}
	}
	rtt := time.Since(start) / time.Duration(n)
	return rtt, <-echoErr
}

func cellMemRTT(ops cellOps, gen *generator, _ string, out map[string]metric) error {
	hub := transport.NewHub(2)
	defer hub.Close()
	rtt, err := pingPong(hub.Endpoint(0), hub.Endpoint(1), gen, ops.memRTT)
	out["transport.mem_rtt_us"] = metric{usec(rtt), "us"}
	return err
}

// cellTCP: round trip, then a one-way stream, over a two-node loopback
// mesh.
func cellTCP(ops cellOps, gen *generator, _ string, out map[string]metric) error {
	nodes, err := listenMesh(2)
	if err != nil {
		return err
	}
	for _, node := range nodes {
		defer node.Close()
	}
	// One warm-up exchange so dialling is not timed.
	if _, err := pingPong(nodes[0], nodes[1], gen, 8); err != nil {
		return err
	}
	rtt, err := pingPong(nodes[0], nodes[1], gen, ops.tcpRTT)
	if err != nil {
		return err
	}
	out["transport.tcp_rtt_us"] = metric{usec(rtt), "us"}

	in := nodes[1].Subscribe(cellStream)
	msgs := wireMsgs(gen)
	received := make(chan error, 1)
	go func() {
		for i := 0; i < ops.tcpStream; i++ {
			select {
			case <-in:
			case <-time.After(ackTimeout):
				received <- fmt.Errorf("tcp stream cell: stalled after %d of %d messages", i, ops.tcpStream)
				return
			}
		}
		received <- nil
	}()
	d, allocs, err := perOp(ops.tcpStream, func() error {
		for i := 0; i < ops.tcpStream; i++ {
			if err := nodes[0].Send(1, cellStream, msgs[i%len(msgs)]); err != nil {
				return err
			}
		}
		return <-received
	})
	out["transport.tcp_msgs_per_s"] = metric{float64(time.Second) / float64(d), "1/s"}
	out["transport.tcp_allocs_per_msg"] = metric{allocs, "count"}
	return err
}
