package statex

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/events"
	"otpdb/internal/recovery"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// Source is the donor-side state access a Server serves from: a
// consistent checkpoint of the committed state and the retained
// definitive backlog. db.Replica and abcast.Optimistic satisfy the two
// halves; ReplicaSource binds them.
type Source interface {
	// Checkpoint captures a consistent snapshot at the current
	// definitive index. The context bounds how long the capture may pin
	// versions against pruning — implementations must honour
	// cancellation while waiting for the commit frontier.
	Checkpoint(ctx context.Context) (*storage.Checkpoint, error)
	// DefinitiveLog returns the retained definitive history from
	// position `from`, the next consensus stage a joiner should resume
	// at, the largest broadcast sequence number seen from `origin` and
	// the delivered sets, captured atomically. It returns
	// abcast.ErrHistoryPruned when the retention ring no longer covers
	// `from`.
	DefinitiveLog(from uint64, origin transport.NodeID) (abcast.DefLog, error)
}

// ReplicaSource adapts a replica and its broadcast engine to Source.
// The interface fields match db.Replica and abcast.Optimistic, kept
// structural so this package needs no dependency on internal/db.
type ReplicaSource struct {
	Replica interface {
		Checkpoint(ctx context.Context) (*storage.Checkpoint, error)
	}
	Engine interface {
		DefinitiveLog(from uint64, origin transport.NodeID) (abcast.DefLog, error)
	}
}

var _ Source = ReplicaSource{}

// Checkpoint implements Source.
func (s ReplicaSource) Checkpoint(ctx context.Context) (*storage.Checkpoint, error) {
	return s.Replica.Checkpoint(ctx)
}

// DefinitiveLog implements Source.
func (s ReplicaSource) DefinitiveLog(from uint64, origin transport.NodeID) (abcast.DefLog, error) {
	return s.Engine.DefinitiveLog(from, origin)
}

// Server serves state transfers at a live site. One server per
// endpoint; transfers run concurrently, each on its own goroutine with
// its own cancelable context (Abort from the joiner, or Stop, cancels).
type Server struct {
	ep  transport.Endpoint
	src Source
	// chunkBytes is the checkpoint chunk size (256 KiB).
	chunkBytes int
	// tailBatch is how many backlog entries ride in one TailChunk (1024).
	tailBatch int
	// ckptTimeout bounds how long one transfer may pin the donor's
	// checkpoint machinery (30s): a joiner that vanished mid-negotiation
	// cannot hold versions pinned past this deadline.
	ckptTimeout time.Duration
	// events, when non-nil, logs every transfer served (start and
	// completion) so donor activity survives in the causal log.
	events *events.Recorder

	mu      sync.Mutex
	active  map[xferKey]context.CancelFunc
	started bool
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	stop   chan struct{}
	done   chan struct{}
}

// NewServer creates a donor server bound to ep serving from src; rec
// (nil to disable) is the flight recorder transfers are logged to. Call
// Start to begin answering requests.
func NewServer(ep transport.Endpoint, src Source, rec *events.Recorder) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		ep:          ep,
		src:         src,
		chunkBytes:  256 << 10,
		tailBatch:   1024,
		ckptTimeout: 30 * time.Second,
		events:      rec,
		active:      make(map[xferKey]context.CancelFunc),
		ctx:         ctx,
		cancel:      cancel,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// Start launches the request loop.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	go s.run()
}

// Stop cancels in-flight transfers and halts the server. Idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if s.started {
			<-s.done
		}
		return
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	s.cancel()
	close(s.stop)
	if started {
		<-s.done
	}
	s.wg.Wait()
}

// Serving reports the number of transfers currently in flight — the
// "am I a donor right now" signal operators see in STATS.
func (s *Server) Serving() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

func (s *Server) run() {
	defer close(s.done)
	in := s.ep.Subscribe(StreamReq)
	for {
		select {
		case env, ok := <-in:
			if !ok {
				return
			}
			switch m := env.Msg.(type) {
			case JoinReq:
				s.beginServe(env.From, m)
			case Abort:
				s.mu.Lock()
				if cancel, ok := s.active[xferKey{env.From, m.Xfer}]; ok {
					cancel()
				}
				s.mu.Unlock()
			}
		case <-s.stop:
			return
		}
	}
}

// xferKey identifies a transfer at the donor: transfer identifiers are
// only unique per joiner, so two joiners must never share an entry.
type xferKey struct {
	joiner transport.NodeID
	xfer   uint64
}

// beginServe registers a transfer and serves it on its own goroutine.
func (s *Server) beginServe(from transport.NodeID, req JoinReq) {
	ctx, cancel := context.WithCancel(s.ctx)
	key := xferKey{from, req.Xfer}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return
	}
	s.active[key] = cancel
	s.wg.Add(1)
	s.mu.Unlock()
	s.events.Record(int(s.ep.ID()), events.KindStatex,
		"phase", "serve", "joiner", from.String(),
		"from", strconv.FormatInt(req.From, 10))
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.active, key)
			s.mu.Unlock()
			cancel()
			s.wg.Done()
			s.events.Record(int(s.ep.ID()), events.KindStatex,
				"phase", "served", "joiner", from.String())
		}()
		s.serve(ctx, from, req)
	}()
}

// serve runs one transfer: negotiate, stream, terminate.
func (s *Server) serve(ctx context.Context, joiner transport.NodeID, req JoinReq) {
	send := func(msg any) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return s.ep.Send(joiner, StreamXfer, msg)
	}

	// Negotiate: can the retained backlog alone close the joiner's gap?
	log, err := s.src.DefinitiveLog(uint64(req.From)+1, joiner)
	base := req.From
	switch {
	case err == nil:
		if err := send(JoinResp{Xfer: req.Xfer, Mode: TailOnly}); err != nil {
			return
		}
	case errors.Is(err, abcast.ErrHistoryPruned):
		if err := send(JoinResp{Xfer: req.Xfer, Mode: CheckpointTail}); err != nil {
			return
		}
		log, base, err = s.serveCheckpoint(ctx, joiner, req)
		if err != nil {
			_ = send(Done{Xfer: req.Xfer, Err: err.Error()})
			return
		}
	default:
		_ = send(JoinResp{Xfer: req.Xfer, Err: err.Error()})
		return
	}

	entries := log.Entries
	chunks := (len(entries) + s.tailBatch - 1) / s.tailBatch
	frontier := base + int64(len(entries))
	for seq := 0; len(entries) > 0; seq++ {
		n := s.tailBatch
		if n > len(entries) {
			n = len(entries)
		}
		if err := send(TailChunk{Xfer: req.Xfer, Seq: seq, Entries: entries[:n]}); err != nil {
			return
		}
		entries = entries[n:]
	}
	_ = send(Done{Xfer: req.Xfer, StartStage: log.NextStage, ResumeSeq: log.ResumeSeq, Delivered: log.Delivered,
		Chunks: chunks, Frontier: frontier})
}

// serveCheckpoint captures and streams a checkpoint, then returns the
// backlog above it and the checkpoint's definitive index. The capture
// is deadline-bounded so an abandoned transfer cannot leave donor
// versions pinned.
//
//otp:fenced donor side: only reads Last off chunks it built itself; Xfer fencing is the joiner's job (attempt.onMessage)
func (s *Server) serveCheckpoint(ctx context.Context, joiner transport.NodeID, req JoinReq) (abcast.DefLog, int64, error) {
	ckctx, cancel := context.WithTimeout(ctx, s.ckptTimeout)
	ck, err := s.src.Checkpoint(ckctx)
	cancel()
	if err != nil {
		return abcast.DefLog{}, 0, fmt.Errorf("checkpoint: %w", err)
	}
	data, err := recovery.EncodeCheckpoint(ck)
	if err != nil {
		return abcast.DefLog{}, 0, err
	}
	for seq, off := 0, 0; ; seq++ {
		end := off + s.chunkBytes
		if end > len(data) {
			end = len(data)
		}
		chunk := CkptChunk{
			Xfer: req.Xfer,
			Seq:  seq,
			Data: data[off:end],
			CRC:  crc32.Checksum(data[off:end], castagnoli),
			Last: end == len(data),
		}
		if err := ctx.Err(); err != nil {
			return abcast.DefLog{}, 0, err
		}
		if err := s.ep.Send(joiner, StreamXfer, chunk); err != nil {
			return abcast.DefLog{}, 0, err
		}
		if chunk.Last {
			break
		}
		off = end
	}
	// The backlog above the checkpoint. The ring can evict between the
	// capture and this query under extreme decision rates; one retry
	// against a fresh checkpoint would hit the same race, so fail the
	// transfer and let the joiner retry from negotiation.
	log, err := s.src.DefinitiveLog(uint64(ck.Index)+1, joiner)
	if err != nil {
		return abcast.DefLog{}, 0, fmt.Errorf("backlog above checkpoint %d: %w", ck.Index, err)
	}
	return log, ck.Index, nil
}
