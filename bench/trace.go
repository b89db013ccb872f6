package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// The traced run observes the program from outside: three decorators the
// benchmark owns sit at layer boundaries of the hand-assembled stack — a
// transport.Endpoint (counts and times Send/Broadcast), an
// abcast.Broadcaster (stamps Broadcast and every Opt/TO event as it
// forwards Deliveries) and a stored-procedure Fn (start/end/run count).
// Transactions are followed at their origin site only; the first 8 payload
// bytes carry a tag naming the origin and the span's slot, so a wrapper
// that sees only a payload still knows which span it belongs to.

// maxSpans bounds the preallocated span buffer per origin site; once full,
// further transactions run untagged (counted, not traced).
const maxSpans = 1 << 18

// span holds one transaction's timestamps, nanoseconds since tracer.base,
// 0 = not seen. Each field has one writer; atomics make the cross-goroutine
// hand-over explicit.
type span struct {
	seq      atomic.Uint64 // MsgID.Seq at the origin
	submit   atomic.Int64  // SubmitNotify entered
	bcastIn  atomic.Int64  // Broadcaster.Broadcast entered
	bcastOut atomic.Int64  // ... returned
	opt      atomic.Int64  // Opt event forwarded
	to       atomic.Int64  // TO event forwarded
	fnFirst  atomic.Int64  // first Fn run started
	fnStart  atomic.Int64  // last Fn run started
	fnEnd    atomic.Int64  // last Fn run returned
	commit   atomic.Int64  // commit callback entered
	acked    atomic.Int64  // client saw the acknowledgement
	fnRuns   atomic.Int32
}

type tracer struct {
	base  time.Time
	spans [sites][]span
	used  [sites]atomic.Int32

	// Endpoint decorator totals, all sites.
	consMsgs, msgs, sendCalls, sendNanos atomic.Int64
}

func newTracer(w *workload) *tracer {
	t := &tracer{base: time.Now()}
	for _, c := range w.clients {
		t.spans[c.site] = make([]span, maxSpans)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin claims a span for an operation about to be submitted at site and
// writes its tag into the payload.
func (t *tracer) begin(site int, o *op, start time.Time) *span {
	i := int(t.used[site].Add(1))
	if i > len(t.spans[site]) {
		return nil
	}
	binary.BigEndian.PutUint64(o.payload, uint64(site+1)<<32|uint64(i))
	sp := &t.spans[site][i-1]
	sp.submit.Store(int64(start.Sub(t.base)))
	return sp
}

// spanAt resolves a broadcast payload to its span if site is its origin.
func (t *tracer) spanAt(site int, payload any) *span {
	req, ok := payload.(sproc.Request)
	if !ok || len(req.Args) != 2 {
		return nil
	}
	return t.spanOf(site, req.Args[1])
}

func (t *tracer) spanOf(site int, payload storage.Value) *span {
	if len(payload) < 8 {
		return nil
	}
	tag := binary.BigEndian.Uint64(payload)
	if int(tag>>32) != site+1 {
		return nil
	}
	return &t.spans[site][uint32(tag)-1]
}

// tracedEndpoint counts and times what the layers above hand to the
// network.
type tracedEndpoint struct {
	transport.Endpoint
	t *tracer
}

func (e *tracedEndpoint) observe(stream string, fanout int, start time.Time) {
	e.t.sendNanos.Add(int64(time.Since(start)))
	e.t.sendCalls.Add(1)
	e.t.msgs.Add(int64(fanout))
	if stream == consensus.Stream {
		e.t.consMsgs.Add(int64(fanout))
	}
}

func (e *tracedEndpoint) Send(to transport.NodeID, stream string, msg any) error {
	start := time.Now()
	err := e.Endpoint.Send(to, stream, msg)
	e.observe(stream, 1, start)
	return err
}

func (e *tracedEndpoint) Broadcast(stream string, msg any) error {
	start := time.Now()
	err := e.Endpoint.Broadcast(stream, msg)
	e.observe(stream, e.N(), start)
	return err
}

// tracedBroadcaster stamps the origin's view of the ordering layer.
type tracedBroadcaster struct {
	abcast.Broadcaster
	t    *tracer
	site int
	// out decouples the forwarder from the replica's delivery loop; the
	// engine's own queue behind Deliveries is unbounded, so this only
	// needs to absorb a scheduling quantum's worth of events.
	out  chan abcast.Event
	done chan struct{}
}

func newTracedBroadcaster(inner abcast.Broadcaster, t *tracer, site int) *tracedBroadcaster {
	return &tracedBroadcaster{Broadcaster: inner, t: t, site: site,
		out: make(chan abcast.Event, 256), done: make(chan struct{})}
}

func (b *tracedBroadcaster) Broadcast(payload any) (abcast.MsgID, error) {
	sp := b.t.spanAt(b.site, payload)
	if sp == nil {
		return b.Broadcaster.Broadcast(payload)
	}
	sp.bcastIn.Store(b.t.now())
	id, err := b.Broadcaster.Broadcast(payload)
	sp.bcastOut.Store(b.t.now())
	sp.seq.Store(id.Seq)
	return id, err
}

func (b *tracedBroadcaster) Deliveries() <-chan abcast.Event { return b.out }

func (b *tracedBroadcaster) Start() error {
	if err := b.Broadcaster.Start(); err != nil {
		return err
	}
	go b.forward()
	return nil
}

// forward relays the engine's event stream, stamping this site's own
// transactions. TO events carry no payload, so the Opt event (which always
// precedes it at a site) leaves the span behind under the message ID.
func (b *tracedBroadcaster) forward() {
	defer close(b.done)
	defer close(b.out)
	pending := make(map[abcast.MsgID]*span)
	for ev := range b.Broadcaster.Deliveries() {
		switch ev.Kind {
		case abcast.Opt:
			if sp := b.t.spanAt(b.site, ev.Payload); sp != nil {
				sp.opt.Store(b.t.now())
				pending[ev.ID] = sp
			}
		case abcast.TO:
			if sp := pending[ev.ID]; sp != nil {
				sp.to.Store(b.t.now())
				delete(pending, ev.ID)
			}
		}
		b.out <- ev
	}
}

func (b *tracedBroadcaster) Stop() error {
	err := b.Broadcaster.Stop()
	<-b.done
	return err
}

// wrapFn decorates a procedure body for one site's registry.
func (t *tracer) wrapFn(site int) func(sproc.UpdateFn) sproc.UpdateFn {
	return func(fn sproc.UpdateFn) sproc.UpdateFn {
		return func(ctx sproc.UpdateCtx) (storage.Value, error) {
			var sp *span
			if args := ctx.Args(); len(args) == 2 {
				sp = t.spanOf(site, args[1])
			}
			if sp == nil {
				return fn(ctx)
			}
			start := t.now()
			v, err := fn(ctx)
			end := t.now()
			if sp.fnRuns.Add(1) == 1 {
				sp.fnFirst.Store(start)
			}
			sp.fnStart.Store(start)
			sp.fnEnd.Store(end)
			return v, err
		}
	}
}

// stageTable is the per-layer breakdown of the traced window. Durations
// are medians over the traced transactions, in microseconds.
type stageTable struct {
	Txns             int     `json:"txns"`
	LatencyP50       float64 `json:"latency_p50_us"`
	Submit           float64 `json:"db.submit_us"`
	BroadcastCall    float64 `json:"abcast.broadcast_call_us"`
	OptDeliver       float64 `json:"abcast.opt_deliver_us"`
	OptToDef         float64 `json:"abcast.opt_to_def_us"`
	QueueWait        float64 `json:"otp.queue_wait_us"`
	Execute          float64 `json:"db.execute_us"`
	CommitAfterDef   float64 `json:"db.commit_after_def_us"`
	Overlap          float64 `json:"otp.overlap_ratio"`
	ResidualP50      float64 `json:"residual_p50_us"`
	ResidualShare    float64 `json:"otpdb.trace_residual_share"`
	BlockingPathP50  float64 `json:"blocking_path_p50_us"`
	DroppedUntraced  int     `json:"untagged_txns"`
	IncompleteTraces int     `json:"incomplete_spans"`
}

// traceFields names the columns of a dumped span row.
var traceFields = []string{"origin", "seq", "submit", "bcast_in", "bcast_out", "opt", "to",
	"fn_first", "fn_start", "fn_end", "commit", "acked", "fn_runs"}

// traceStages describes the span tree the columns encode: a stage's self
// time is its interval minus what its children cover.
var traceStages = []map[string]string{
	{"name": "otpdb.txn", "parent": "", "from": "submit", "to": "acked"},
	{"name": "db.submit", "parent": "otpdb.txn", "from": "submit", "to": "bcast_in"},
	{"name": "abcast.order", "parent": "otpdb.txn", "from": "bcast_in", "to": "to"},
	{"name": "abcast.broadcast_call", "parent": "abcast.order", "from": "bcast_in", "to": "bcast_out"},
	{"name": "abcast.opt_deliver", "parent": "abcast.order", "from": "bcast_in", "to": "opt"},
	{"name": "abcast.opt_to_def", "parent": "abcast.order", "from": "opt", "to": "to"},
	{"name": "otp.queue_wait", "parent": "otpdb.txn", "from": "opt", "to": "fn_first"},
	{"name": "db.execute", "parent": "otpdb.txn", "from": "fn_start", "to": "fn_end"},
	{"name": "db.commit_after_def", "parent": "otpdb.txn", "from": "max(to,fn_end)", "to": "commit"},
	{"name": "otpdb.ack", "parent": "otpdb.txn", "from": "commit", "to": "acked"},
}

// table reduces the spans submitted in [from, to) to the stage table and
// returns up to maxRows raw rows for the trace file.
func (t *tracer) table(from, to time.Time, maxRows int) (stageTable, [][]int64) {
	lo, hi := int64(from.Sub(t.base)), int64(to.Sub(t.base))
	var tab stageTable
	var rows [][]int64
	var lat, submit, bcall, optd, o2d, qwait, execute, cad, overlap, resid, path []float64
	for site := range t.spans {
		used := int(t.used[site].Load())
		if used > len(t.spans[site]) {
			tab.DroppedUntraced += used - len(t.spans[site])
			used = len(t.spans[site])
		}
		for i := 0; i < used; i++ {
			sp := &t.spans[site][i]
			s := sp.submit.Load()
			if s < lo || s >= hi {
				continue
			}
			bi, bo, op, td := sp.bcastIn.Load(), sp.bcastOut.Load(), sp.opt.Load(), sp.to.Load()
			ff, fs, fe := sp.fnFirst.Load(), sp.fnStart.Load(), sp.fnEnd.Load()
			cm, ak := sp.commit.Load(), sp.acked.Load()
			if bi == 0 || bo == 0 || op == 0 || td == 0 || ff == 0 || fe == 0 || cm == 0 || ak == 0 {
				tab.IncompleteTraces++
				continue
			}
			if len(rows) < maxRows {
				rows = append(rows, []int64{int64(site), int64(sp.seq.Load()), s, bi, bo, op, td, ff, fs, fe, cm, ak, int64(sp.fnRuns.Load())})
			}
			us := func(d int64) float64 { return float64(d) / 1e3 }
			l := us(ak - s)
			e, d := us(fe-fs), us(td-op)
			q := us(ff - op)
			c := us(cm - max(td, fe))
			blocking := us(bi-s) + us(op-bi) + max(q+e, d) + c
			lat = append(lat, l)
			submit = append(submit, us(bi-s))
			bcall = append(bcall, us(bo-bi))
			optd = append(optd, us(op-bi))
			o2d = append(o2d, d)
			qwait = append(qwait, q)
			execute = append(execute, e)
			cad = append(cad, c)
			overlap = append(overlap, us(cm-op)/max(e, d))
			resid = append(resid, l-blocking)
			path = append(path, blocking)
		}
	}
	tab.Txns = len(lat)
	if tab.Txns == 0 {
		return tab, rows
	}
	tab.LatencyP50 = median(lat)
	tab.Submit = median(submit)
	tab.BroadcastCall = median(bcall)
	tab.OptDeliver = median(optd)
	tab.OptToDef = median(o2d)
	tab.QueueWait = median(qwait)
	tab.Execute = median(execute)
	tab.CommitAfterDef = median(cad)
	tab.Overlap = median(overlap)
	tab.ResidualP50 = median(resid)
	tab.ResidualShare = tab.ResidualP50 / tab.LatencyP50
	tab.BlockingPathP50 = median(path)
	return tab, rows
}
