package obs

import (
	"encoding/binary"
	"math"
	"time"

	"otpdb/internal/metrics"
	"otpdb/internal/transport"
)

// Wire tags of the fan-out messages (transport/wire.go has the table).
// Stable: changing one is a wire version change.
const (
	tagQuery = 0x50 + iota
	tagReply
)

// RegisterWire makes the fan-out message types known to the TCP
// transport.
func RegisterWire() {
	transport.RegisterCodec(tagQuery, Query.AppendWire, decodeQuery)
	transport.RegisterCodec(tagReply, Reply.AppendWire, decodeReply)
}

// AppendWire appends nonce, kind and key.
func (q Query) AppendWire(b []byte) ([]byte, error) {
	b = transport.AppendString(binary.AppendUvarint(b, q.Nonce), q.Kind)
	return transport.AppendString(b, q.Key), nil
}

func decodeQuery(b []byte) (Query, error) {
	r := transport.NewWireReader(b)
	q := Query{Nonce: r.Uvarint(), Kind: r.Name(), Key: r.String()}
	return q, r.Done()
}

// AppendWire appends nonce, kind, site and epoch, then the spans (count;
// txn, trace, span, site, shard, time as Unix nanoseconds, note) and the
// samples (count; name, labels, kind, value as float bits, then a flag
// and, when set, the histogram's moments and buckets).
//
//otp:fenced encoder: the responder stamps its own epoch; collect fences replies by it
func (p Reply) AppendWire(b []byte) ([]byte, error) {
	b = transport.AppendString(binary.AppendUvarint(b, p.Nonce), p.Kind)
	b = binary.AppendUvarint(binary.AppendVarint(b, int64(p.Site)), p.Epoch)
	b = binary.AppendUvarint(b, uint64(len(p.Spans)))
	for _, s := range p.Spans {
		b = transport.AppendString(transport.AppendString(transport.AppendString(b, s.Txn), s.Trace), s.Span)
		b = binary.AppendVarint(binary.AppendVarint(b, int64(s.Site)), int64(s.Shard))
		b = transport.AppendString(binary.AppendVarint(b, s.At.UnixNano()), s.Note)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Samples)))
	for _, s := range p.Samples {
		b = binary.AppendUvarint(transport.AppendString(b, s.Name), uint64(len(s.Labels)))
		for _, l := range s.Labels {
			b = transport.AppendString(transport.AppendString(b, l.Key), l.Value)
		}
		b = binary.BigEndian.AppendUint64(binary.AppendVarint(b, int64(s.Kind)), math.Float64bits(s.Value))
		if b = transport.AppendBool(b, s.Hist != nil); s.Hist != nil {
			h := s.Hist
			b = binary.AppendVarint(binary.AppendVarint(b, h.Count), h.Sum)
			b = binary.AppendVarint(binary.AppendVarint(b, h.Min), h.Max)
			b = binary.AppendUvarint(b, uint64(len(h.Buckets)))
			for _, c := range h.Buckets {
				b = binary.AppendVarint(binary.AppendVarint(b, int64(c.Idx)), c.N)
			}
		}
	}
	return b, nil
}

//otp:fenced decoder: collect fences replies by epoch
func decodeReply(b []byte) (Reply, error) {
	r := transport.NewWireReader(b)
	p := Reply{Nonce: r.Uvarint(), Kind: r.Name(), Site: int(r.Varint()), Epoch: r.Uvarint()}
	if n := r.Count(7); n > 0 { // a span is seven bytes or more
		p.Spans = make([]metrics.TraceEvent, n)
		for i := range p.Spans {
			p.Spans[i] = metrics.TraceEvent{Txn: r.String(), Trace: r.String(), Span: r.Name(),
				Site: int(r.Varint()), Shard: int(r.Varint()), At: time.Unix(0, r.Varint()), Note: r.String()}
		}
	}
	if n := r.Count(12); n > 0 { // a sample is twelve bytes or more
		p.Samples = make([]metrics.WireSample, n)
		for i := range p.Samples {
			s := &p.Samples[i]
			s.Name = r.Name()
			if n := r.Count(2); n > 0 {
				s.Labels = make([]metrics.Label, n)
				for j := range s.Labels {
					s.Labels[j] = metrics.Label{Key: r.Name(), Value: r.String()}
				}
			}
			s.Kind, s.Value = metrics.Kind(r.Varint()), math.Float64frombits(r.Uint64())
			if r.Bool() {
				s.Hist = &metrics.HistExport{Count: r.Varint(), Sum: r.Varint(), Min: r.Varint(), Max: r.Varint()}
				if n := r.Count(2); n > 0 {
					s.Hist.Buckets = make([]metrics.BucketCount, n)
					for j := range s.Hist.Buckets {
						s.Hist.Buckets[j] = metrics.BucketCount{Idx: int(r.Varint()), N: r.Varint()}
					}
				}
			}
		}
	}
	return p, r.Done()
}
