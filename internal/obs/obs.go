// Package obs is the cluster-wide observability fan-out: one station
// per site answers trace and metrics queries from its peers over the
// group transport, so any site can stitch a transaction's spans from
// every site's local ring (otpd TRACE) or federate every live member's
// metrics registry into one scrape (/cluster/metrics).
//
// Queries are membership-aware and epoch-fenced: the caller passes the
// peer set it currently believes in (its tracker's members), and every
// reply carries the responder's membership epoch. Replies from an
// older epoch than the freshest seen are dropped — a removed member
// still limping on a stale configuration cannot smuggle its series
// into the rollup, so its data disappears within one scrape of its
// eviction.
package obs

import (
	"context"
	"sync"

	"otpdb/internal/metrics"
	"otpdb/internal/transport"
)

// Streams used on the transport.
const (
	// StreamQuery carries trace/metrics queries to peers.
	StreamQuery = "obs.q"
	// StreamReply carries the answers back.
	StreamReply = "obs.r"
)

// Query kinds.
const (
	kindTrace   = "trace"
	kindMetrics = "metrics"
)

// Query asks one peer for observability data.
type Query struct {
	Nonce uint64
	Kind  string
	Key   string // trace queries: the transaction or trace ID
}

// Reply is one peer's answer.
type Reply struct {
	Nonce   uint64
	Kind    string
	Site    int
	Epoch   uint64
	Spans   []metrics.TraceEvent
	Samples []metrics.WireSample
}

// Config parameterises a Station.
type Config struct {
	// Site is this station's site index (stamped on replies).
	Site int
	// Epoch reports the current membership epoch (nil means epoch 0).
	Epoch func() uint64
	// Trace is the local span ring served to trace queries (nil: none).
	Trace *metrics.TraceRing
	// Metrics is the local registry served to metrics queries.
	Metrics *metrics.Registry
}

// Station serves this site's observability data to peers and fans
// queries out to them. One station runs per otpd process, attached to
// the shard-0 group endpoint (every process has one).
type Station struct {
	ep  transport.Endpoint
	cfg Config

	mu      sync.Mutex
	nonce   uint64
	pending map[uint64]chan Reply

	stop chan struct{}
	done chan struct{}
}

// New creates a station over an endpoint. Call Start to begin serving.
func New(ep transport.Endpoint, cfg Config) *Station {
	return &Station{
		ep: ep, cfg: cfg,
		pending: make(map[uint64]chan Reply),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the serve loop.
func (s *Station) Start() {
	queries := s.ep.Subscribe(StreamQuery)
	replies := s.ep.Subscribe(StreamReply)
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			case env, ok := <-queries:
				if !ok {
					return
				}
				q, good := env.Msg.(Query)
				if !good {
					continue
				}
				_ = s.ep.Send(env.From, StreamReply, s.answer(q))
			case env, ok := <-replies:
				if !ok {
					return
				}
				r, good := env.Msg.(Reply)
				if !good {
					continue
				}
				s.mu.Lock()
				ch := s.pending[r.Nonce]
				s.mu.Unlock()
				if ch != nil {
					select {
					case ch <- r:
					default:
					}
				}
			}
		}
	}()
}

// Stop terminates the serve loop.
func (s *Station) Stop() {
	close(s.stop)
	<-s.done
}

// answer builds this site's reply to a query.
func (s *Station) answer(q Query) Reply {
	r := Reply{Nonce: q.Nonce, Kind: q.Kind, Site: s.cfg.Site}
	if s.cfg.Epoch != nil {
		r.Epoch = s.cfg.Epoch()
	}
	switch q.Kind {
	case kindTrace:
		r.Spans = s.cfg.Trace.Find(q.Key)
	case kindMetrics:
		r.Samples = metrics.ExportSnapshot(s.cfg.Metrics)
	}
	return r
}

// collect fans one query out to peers (self included via transport
// loopback) and gathers replies until every peer answered or ctx
// expires. Replies older than the freshest epoch seen are dropped.
func (s *Station) collect(ctx context.Context, kind, key string, peers []transport.NodeID) []Reply {
	s.mu.Lock()
	s.nonce++
	nonce := s.nonce
	ch := make(chan Reply, len(peers)+1)
	s.pending[nonce] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, nonce)
		s.mu.Unlock()
	}()

	sent := 0
	for _, p := range peers {
		if s.ep.Send(p, StreamQuery, Query{Nonce: nonce, Kind: kind, Key: key}) == nil {
			sent++
		}
	}
	var out []Reply
	var maxEpoch uint64
	for len(out) < sent {
		select {
		case r := <-ch:
			if r.Epoch > maxEpoch {
				maxEpoch = r.Epoch
			}
			out = append(out, r)
		case <-ctx.Done():
			return fence(out, maxEpoch)
		}
	}
	return fence(out, maxEpoch)
}

// fence drops replies from members whose epoch lags the freshest seen:
// they answered from a configuration the cluster has moved past.
func fence(rs []Reply, maxEpoch uint64) []Reply {
	out := rs[:0]
	for _, r := range rs {
		if r.Epoch == maxEpoch {
			out = append(out, r)
		}
	}
	return out
}

// Trace fans a trace query out to peers and returns the stitched
// cluster-wide span set, causally ordered. Key may be a local
// transaction ID (m0.4) or a cluster-wide trace ID (tx0.1.7).
func (s *Station) Trace(ctx context.Context, key string, peers []transport.NodeID) []metrics.TraceEvent {
	replies := s.collect(ctx, kindTrace, key, peers)
	sets := make([][]metrics.TraceEvent, 0, len(replies))
	for _, r := range replies {
		sets = append(sets, r.Spans)
	}
	return metrics.StitchTraces(sets...)
}

// Metrics fans a metrics scrape out to peers and returns the federated
// sample list (member series plus rollups), ready for WritePromSamples.
func (s *Station) Metrics(ctx context.Context, peers []transport.NodeID) []metrics.Sample {
	replies := s.collect(ctx, kindMetrics, "", peers)
	scrapes := make([][]metrics.WireSample, 0, len(replies))
	for _, r := range replies {
		scrapes = append(scrapes, r.Samples)
	}
	return metrics.Federate(scrapes...)
}
