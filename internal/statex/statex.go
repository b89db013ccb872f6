// Package statex is the peer-to-peer state-transfer service that lets a
// restarted replica rejoin a running cluster over the ordinary transport
// streams — the wire-native form of the catch-up protocol that
// otpdb.Cluster.RestartSite used to perform by function call. It keeps
// recovery traffic off the hot broadcast path: transfers ride dedicated
// streams and never touch consensus.
//
// The protocol is a negotiation followed by a one-way stream:
//
//  1. The joiner advertises the definitive index it recovered locally
//     (JoinReq.From — 0 for a site with no usable local state).
//  2. The donor answers with a mode (JoinResp): "tail only" when its
//     retained definitive history still covers From+1, or "checkpoint +
//     tail" when the backlog ring has evicted that range and the joiner
//     needs a full snapshot first.
//  3. In checkpoint mode the donor streams its newest consistent
//     checkpoint in CRC-framed chunks (CkptChunk) — the same encoding
//     internal/recovery writes to disk, so a received checkpoint is
//     bit-identical to a local one.
//  4. The donor streams the definitive backlog above the base index
//     (TailChunk) and terminates with Done, which carries the consensus
//     stage to resume at and the joiner's pre-crash broadcast sequence
//     floor — captured atomically with the backlog, so checkpoint +
//     backlog + live stages cover the definitive order with no gap and
//     no overlap.
//
// A transfer is one negotiation with one donor at a time. The client
// (Fetch) tries donors in order: a silent donor (per-chunk receive
// timeout), a CRC-corrupt or out-of-sequence chunk, and an explicit
// donor error all abandon the attempt and send Abort so the donor
// unpins promptly. The next donor starts over — a fresh JoinReq from
// the joiner's recovered index, nothing kept from the failed attempt —
// so a returned Transfer is exactly one donor's stream: its checkpoint,
// backlog and Done all come from that donor's one atomic capture.
package statex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync/atomic"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/events"
	"otpdb/internal/metrics"
	"otpdb/internal/recovery"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// Transport streams. Requests flow joiner -> donor on StreamReq; the
// transfer itself flows donor -> joiner on StreamXfer. Keeping the two
// directions on separate streams lets a node run a donor Server and,
// earlier in its life, a Fetch, without the two contending for one
// subscription channel.
const (
	// StreamReq carries JoinReq and Abort (joiner -> donor).
	StreamReq = "sx.req"
	// StreamXfer carries JoinResp, CkptChunk, TailChunk and Done
	// (donor -> joiner).
	StreamXfer = "sx.xfer"
)

// Mode is the negotiated transfer shape.
type Mode int

// Transfer modes.
const (
	// TailOnly transfers just the definitive backlog above the joiner's
	// advertised index: the joiner's local state is current enough that
	// the donor's retained history closes the gap.
	TailOnly Mode = iota + 1
	// CheckpointTail transfers a full donor checkpoint first, then the
	// backlog above it: the joiner's index has fallen below the donor's
	// retained history.
	CheckpointTail
)

func (m Mode) String() string {
	switch m {
	case TailOnly:
		return "tail-only"
	case CheckpointTail:
		return "checkpoint+tail"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Wire messages.
type (
	// JoinReq opens a transfer: the joiner advertises the definitive
	// index its local recovery reached.
	JoinReq struct {
		// Xfer identifies the transfer; chunks of abandoned attempts are
		// filtered by it.
		Xfer uint64
		// From is the joiner's recovered definitive index (0 = nothing).
		From int64
	}
	// JoinResp is the donor's negotiation answer.
	//
	//otp:fence Xfer
	JoinResp struct {
		Xfer uint64
		// Mode is the transfer shape the donor chose.
		Mode Mode
		// Err, when non-empty, declines the transfer (the joiner fails
		// over to another donor).
		Err string
	}
	// CkptChunk is one CRC-framed slice of the encoded checkpoint.
	// Chunks are numbered from 0 and the last one is flagged; the
	// assembled bytes are the recovery checkpoint encoding (body +
	// CRC-32C trailer, recovery.EncodeCheckpointTo), which the joiner
	// validates a second time as a whole on decode.
	//
	//otp:fence Xfer
	CkptChunk struct {
		Xfer uint64
		Seq  int
		Data []byte
		// CRC is the CRC-32C of Data — per-chunk framing so corruption
		// is caught at the first bad chunk, not after the full stream.
		CRC  uint32
		Last bool
	}
	// TailChunk is one batch of the definitive backlog, in ascending
	// contiguous Seq order across chunks.
	//
	//otp:fence Xfer
	TailChunk struct {
		Xfer    uint64
		Seq     int
		Entries []abcast.DefEntry
	}
	// Done terminates a transfer: the consensus stage the joiner must
	// resume at, the largest broadcast sequence number the donor has
	// seen from the joiner's origin, and the donor's delivered sets —
	// per origin, the messages it has TO-released, which the joiner must
	// drop when the network replays them — all captured atomically with
	// the last backlog entry. A non-empty Err aborts the transfer
	// instead (e.g. the donor's checkpoint failed mid-stream).
	//
	// The transport between joiner and donor may reorder messages (the
	// chaos network models per-packet jitter), so Done can overtake the
	// chunks it terminates. Chunks and Frontier let the joiner tell a
	// complete stream from a truncated one: it holds the Done until all
	// Chunks tail chunks arrived, and the assembled backlog must reach
	// exactly Frontier.
	//
	//otp:fence Xfer
	Done struct {
		Xfer       uint64
		StartStage uint64
		ResumeSeq  uint64
		Delivered  []abcast.SeqRange
		// Chunks is the number of TailChunks the donor sent before this
		// Done.
		Chunks int
		// Frontier is the definitive index the stream covers: checkpoint
		// index (if any) plus every tail entry sent.
		Frontier int64
		Err      string
	}
	// Abort tells the donor the joiner gave up on a transfer, so the
	// donor stops streaming (and unpins) promptly.
	Abort struct {
		Xfer uint64
	}
)

// ResumeSeqSlack is added to the donor-reported broadcast sequence floor
// when the joiner resumes numbering its own messages. A single donor can
// under-report: a message the crashing origin managed to deliver to some
// third site but not to the donor would collide with a re-used sequence
// number and be silently deduplicated there. Sequence numbers only need
// to be unique, so jumping far past anything plausibly in flight closes
// the window outright.
const ResumeSeqSlack = 1 << 20

// Transfer is the assembled result of a successful fetch.
type Transfer struct {
	// Mode is the negotiated shape.
	Mode Mode
	// Donor is the peer that served the transfer.
	Donor transport.NodeID
	// Checkpoint is the donor snapshot to install (nil in TailOnly mode
	// — the joiner's own recovered state is the base).
	Checkpoint *storage.Checkpoint
	// Base is the definitive index the joiner's store holds once the
	// checkpoint (if any) is installed: Join.Backlog starts at Base+1.
	Base int64
	// Join primes the joiner's broadcast engine: resume stage, backlog,
	// and the slack-adjusted broadcast sequence floor.
	Join abcast.JoinState
}

// Options tunes the client side of a transfer.
type Options struct {
	// respTimeout bounds the wait for the donor's JoinResp (default
	// negotiationTimeout); in-package tests lower it.
	respTimeout time.Duration
	// chunkTimeout bounds the silence between stream messages after the
	// JoinResp (default 45s). It must exceed the donor's checkpoint-
	// capture deadline (Server.ckptTimeout, 30s), which is the longest
	// legitimate silence — between the JoinResp and the first chunk,
	// while the donor waits on its commit frontier. A capture that
	// overruns then fails donor-side first (a terminal Done{Err},
	// immediate failover) instead of burning this timeout.
	chunkTimeout time.Duration
	// Metrics, when non-nil, registers transfer telemetry (bytes and
	// chunks received, catch-up entries, donor failovers) under the
	// scope's labels.
	Metrics *metrics.Scope
	// Events, when non-nil, receives flight-recorder entries for the
	// transfer negotiation: start, per-donor failover, and outcome.
	Events *events.Recorder
}

// xferMetrics is the per-fetch instrument set, threaded into every
// attempt so chunks verified on receipt are counted where they are
// verified. Instruments from a nil scope are inert, so the zero cost
// of the uninstrumented path is one atomic add per chunk.
type xferMetrics struct {
	bytes, chunks, entries *metrics.Counter
}

func newXferMetrics(s *metrics.Scope) xferMetrics {
	return xferMetrics{
		bytes:   s.Counter("statex_transfer_bytes_total"),
		chunks:  s.Counter("statex_transfer_chunks_total"),
		entries: s.Counter("statex_catchup_entries_total"),
	}
}

// negotiationTimeout is how long a joiner waits for a donor's JoinResp. It is
// also the price of probing a dead donor, so it is short.
const negotiationTimeout = 3 * time.Second

func (o Options) withDefaults() Options {
	if o.respTimeout <= 0 {
		o.respTimeout = negotiationTimeout
	}
	if o.chunkTimeout <= 0 {
		o.chunkTimeout = 45 * time.Second
	}
	return o
}

// castagnoli matches the WAL/checkpoint CRC flavour.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// xferCounter generates per-process transfer identifiers. Seeded with
// the clock at init so identifiers stay unique across a process
// restart: a survivor's transport retransmits the unacknowledged chunks
// of a pre-crash transfer to the restarted process, and those must not
// collide with the identifiers of its fresh attempts. (Donors
// additionally key transfers by joiner, so two joiners whose clocks
// collide cannot interfere with each other.)
var xferCounter atomic.Uint64

func init() {
	xferCounter.Store(uint64(time.Now().UnixNano()))
}

func nextXferID() uint64 { return xferCounter.Add(1) }

// Fetch negotiates and downloads a state transfer from the first donor
// able to serve it, failing over down the donors list when a transfer
// dies mid-stream. `from` is the definitive index the joiner recovered
// locally; every donor is asked from there, so a failover starts the
// transfer over. The endpoint must be attached to the cluster
// transport; no broadcast engine needs to be running yet.
func Fetch(ctx context.Context, ep transport.Endpoint, from int64, donors []transport.NodeID, opts Options) (*Transfer, error) {
	if len(donors) == 0 {
		return nil, errors.New("statex: no donors to fetch from")
	}
	opts = opts.withDefaults()
	sub := ep.Subscribe(StreamXfer)
	xm := newXferMetrics(opts.Metrics)
	failovers := opts.Metrics.Counter("statex_donor_failover_total")
	site := int(ep.ID())
	opts.Events.Record(site, events.KindStatex,
		"phase", "fetch", "from", strconv.FormatInt(from, 10),
		"donors", fmt.Sprint(donors))
	var errs []error
	for _, donor := range donors {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		t, err := fetchFrom(ctx, ep, sub, from, donor, opts, xm)
		if err == nil {
			opts.Events.Record(site, events.KindStatex,
				"phase", "fetched", "donor", donor.String(),
				"base", strconv.FormatInt(t.Base, 10))
			return t, nil
		}
		failovers.Inc()
		opts.Events.Record(site, events.KindStatex,
			"phase", "failover", "donor", donor.String(), "err", err.Error())
		errs = append(errs, fmt.Errorf("donor %v: %w", donor, err))
	}
	opts.Events.Record(site, events.KindStatex, "phase", "exhausted")
	return nil, fmt.Errorf("statex: no donor could serve: %w", errors.Join(errs...))
}

// attempt is the receive-side state machine of one transfer attempt.
type attempt struct {
	donor transport.NodeID
	// from is the joiner's recovered index, which this attempt advertised.
	from int64

	// m counts verified receive-side progress. Always populated via
	// newXferMetrics (unregistered instruments without a scope).
	m xferMetrics

	mode     Mode
	gotResp  bool
	ckptBuf  bytes.Buffer
	ckptSeq  int
	ckptDone bool
	tailSeq  int
	// expectSeq is the next definitive position the tail must carry
	// (0 = not yet known: checkpoint mode before the first entry).
	expectSeq uint64
	entries   []abcast.DefEntry
	// pendCk/pendTail hold chunks that arrived ahead of their turn and
	// fin a Done that overtook the stream it terminates: the transport
	// under a chaotic network reorders messages, so the state machine
	// applies chunks in Seq order from these buffers and only finalizes
	// once every chunk the Done accounts for has been applied.
	pendCk   map[int]CkptChunk
	pendTail map[int]TailChunk
	fin      *Done
}

// fetchFrom runs one attempt against one donor, from the joiner's
// recovered index.
func fetchFrom(ctx context.Context, ep transport.Endpoint, sub <-chan transport.Envelope,
	from int64, donor transport.NodeID, opts Options, xm xferMetrics) (*Transfer, error) {
	xfer := nextXferID()
	if err := ep.Send(donor, StreamReq, JoinReq{Xfer: xfer, From: from}); err != nil {
		return nil, err
	}
	abort := func() { _ = ep.Send(donor, StreamReq, Abort{Xfer: xfer}) }

	st := &attempt{donor: donor, from: from, m: xm}
	wait := opts.respTimeout
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		var env transport.Envelope
		select {
		case <-ctx.Done():
			abort()
			return nil, ctx.Err()
		case <-timer.C:
			abort()
			return nil, fmt.Errorf("statex: transfer timed out after %v of silence", wait)
		case e, ok := <-sub:
			if !ok {
				return nil, transport.ErrClosed
			}
			env = e
		}
		if env.From != donor {
			continue // stale traffic from an abandoned attempt
		}
		done, final, err := st.onMessage(env.Msg, xfer)
		if err != nil {
			abort()
			return nil, err
		}
		if final {
			return st.assemble(done)
		}
		if st.gotResp {
			wait = opts.chunkTimeout
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
	}
}

// onMessage advances the state machine by one wire message. The
// transport may reorder messages arbitrarily (chaos jitter models
// per-packet delay), so chunks that arrive ahead of their turn are
// buffered and applied in Seq order, and a Done that overtakes the
// stream is held until every chunk it accounts for has been applied.
// It returns the terminal Done only once the stream is complete.
func (st *attempt) onMessage(msg any, xfer uint64) (Done, bool, error) {
	switch m := msg.(type) {
	case JoinResp:
		if m.Xfer != xfer || st.gotResp {
			return Done{}, false, nil // stale or duplicate: ignore
		}
		if m.Err != "" {
			return Done{}, false, fmt.Errorf("statex: donor declined: %s", m.Err)
		}
		if m.Mode != TailOnly && m.Mode != CheckpointTail {
			return Done{}, false, fmt.Errorf("statex: donor proposed unknown mode %d", int(m.Mode))
		}
		st.gotResp = true
		st.mode = m.Mode
		if m.Mode == TailOnly {
			// The tail continues the joiner's own state: position from+1
			// first. In checkpoint mode the start is the (yet unknown)
			// checkpoint index + 1, pinned when the first entry arrives
			// and cross-checked against the decoded index in assemble.
			st.expectSeq = uint64(st.from) + 1
		}
	case CkptChunk:
		if m.Xfer != xfer || m.Seq < st.ckptSeq {
			return Done{}, false, nil // stale or already applied
		}
		if st.gotResp && st.mode != CheckpointTail {
			return Done{}, false, errors.New("statex: checkpoint chunk in tail-only transfer")
		}
		if crc32.Checksum(m.Data, castagnoli) != m.CRC {
			return Done{}, false, fmt.Errorf("statex: checkpoint chunk %d CRC mismatch", m.Seq)
		}
		st.m.chunks.Inc()
		st.m.bytes.Add(uint64(len(m.Data)))
		if st.pendCk == nil {
			st.pendCk = make(map[int]CkptChunk)
		}
		st.pendCk[m.Seq] = m
	case TailChunk:
		if m.Xfer != xfer || m.Seq < st.tailSeq {
			return Done{}, false, nil // stale or already applied
		}
		st.m.chunks.Inc()
		if st.pendTail == nil {
			st.pendTail = make(map[int]TailChunk)
		}
		st.pendTail[m.Seq] = m
	case Done:
		if m.Xfer != xfer {
			return Done{}, false, nil
		}
		if m.Err != "" {
			return Done{}, false, fmt.Errorf("statex: donor aborted: %s", m.Err)
		}
		d := m
		st.fin = &d
	}
	if err := st.drain(); err != nil {
		return Done{}, false, err
	}
	if st.fin != nil && st.gotResp &&
		(st.mode == TailOnly || st.ckptDone) && st.tailSeq == st.fin.Chunks {
		return *st.fin, true, nil
	}
	return Done{}, false, nil
}

// drain applies buffered chunks in order as far as contiguity allows.
// Checkpoint bytes first (their Last flag gates the tail), then tail
// entries, each verified on apply.
//
//otp:fenced pendCk/pendTail only hold chunks onMessage admitted after comparing m.Xfer against this attempt's id
func (st *attempt) drain() error {
	if !st.gotResp {
		return nil
	}
	if st.mode == CheckpointTail && !st.ckptDone {
		for {
			m, ok := st.pendCk[st.ckptSeq]
			if !ok {
				break
			}
			delete(st.pendCk, st.ckptSeq)
			st.ckptSeq++
			st.ckptBuf.Write(m.Data)
			if m.Last {
				st.ckptDone = true
				break
			}
		}
	}
	if st.mode == CheckpointTail && !st.ckptDone {
		return nil // the tail attaches above the checkpoint; wait for it
	}
	for {
		m, ok := st.pendTail[st.tailSeq]
		if !ok {
			return nil
		}
		delete(st.pendTail, st.tailSeq)
		st.tailSeq++
		// Verify contiguity as entries arrive, not at assembly: a gap
		// fails the attempt at the chunk that carries it.
		for _, ent := range m.Entries {
			if st.expectSeq == 0 {
				st.expectSeq = ent.Seq
			}
			if ent.Seq != st.expectSeq {
				return fmt.Errorf("statex: backlog gap: entry has position %d, want %d",
					ent.Seq, st.expectSeq)
			}
			st.expectSeq++
			st.entries = append(st.entries, ent)
			st.m.entries.Inc()
		}
	}
}

// assemble validates the completed stream and builds the Transfer from
// this donor's checkpoint (if any), backlog and terminal Done.
//
//otp:fenced the Done passed in is st.fin, stored by onMessage only after comparing m.Xfer against this attempt's id
func (st *attempt) assemble(d Done) (*Transfer, error) {
	t := &Transfer{Mode: st.mode, Donor: st.donor, Base: st.from}
	if st.mode == CheckpointTail {
		if !st.ckptDone {
			return nil, errors.New("statex: checkpoint stream truncated")
		}
		ck, err := recovery.DecodeCheckpoint(st.ckptBuf.Bytes())
		if err != nil {
			return nil, err
		}
		t.Checkpoint = ck
		t.Base = ck.Index
	}
	entries := st.entries
	for i, ent := range entries {
		if ent.Seq != uint64(t.Base)+1+uint64(i) {
			return nil, fmt.Errorf("statex: backlog gap: entry %d has position %d, want %d",
				i, ent.Seq, uint64(t.Base)+1+uint64(i))
		}
	}
	// End-to-end truncation guard: the assembled backlog must reach
	// exactly the frontier the donor's Done accounts for. A reordering
	// or loss that swallowed trailing chunks fails here instead of
	// silently joining the group with missing history.
	if got := t.Base + int64(len(entries)); got != d.Frontier {
		return nil, fmt.Errorf("statex: backlog truncated: assembled through %d, donor frontier %d", got, d.Frontier)
	}
	t.Join = abcast.JoinState{
		StartStage: d.StartStage,
		ResumeSeq:  d.ResumeSeq + ResumeSeqSlack,
		Backlog:    entries,
		Delivered:  d.Delivered,
	}
	return t, nil
}
