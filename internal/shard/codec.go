package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// Reserved procedure and class names. CoordClass is pinned to shard 0's
// namespace convention (the "__" prefix, see Map.Locate) but exists in
// EVERY shard: prepares carry the cross-transaction's real classes, and
// decides run under CoordClass at the home shard only.
const (
	// CoordClass is the conflict class of decide transactions. It is
	// deliberately NOT among a prepare's classes, so a decide never
	// queues behind the blocked prepare it must unblock.
	CoordClass = sproc.ClassID("__xshard")
	// PrepareProc is the dynamic multi-class prepare procedure.
	PrepareProc = "__xshard.prepare"
	// DecideProc is the decide procedure (single class: CoordClass).
	DecideProc = "__xshard.decide"
)

// Verdict is the outcome of a cross-shard transaction.
type Verdict int

// Verdicts.
const (
	// VerdictNone is the zero value (no decision yet).
	VerdictNone Verdict = iota
	// VerdictCommit: every shard votes yes; writes are applied.
	VerdictCommit
	// VerdictAbort: some shard voted no, timed out, or the resolver
	// presumed abort; no shard applies any write.
	VerdictAbort
)

func (v Verdict) String() string {
	switch v {
	case VerdictCommit:
		return "commit"
	case VerdictAbort:
		return "abort"
	default:
		return "none"
	}
}

// XID identifies one cross-shard transaction attempt globally: the
// coordinating process's node identity and incarnation plus a local
// sequence number. A retry is a NEW XID — verdicts are per-attempt.
type XID struct {
	Origin transport.NodeID
	Inc    uint64
	Seq    uint64
}

func (x XID) String() string { return fmt.Sprintf("x%d.%d.%d", x.Origin, x.Inc, x.Seq) }

// RW is one captured access of the coordinator's phase-0 execution:
// the class-qualified key with either the value read (validation) or
// the value to write (application).
type RW struct {
	Class sproc.ClassID
	Key   storage.Key
	// Value is the read snapshot value (nil if the key was absent) or
	// the value to install.
	Value storage.Value
	// Present distinguishes a read of an absent key from a nil value.
	Present bool
}

// prepPayload is the argument of a prepare transaction at one shard: the
// attempt identity, this shard, the home shard, the full shard set, and
// the phase-0 reads (to validate) and writes (to apply on commit) that
// fall into this shard's classes.
type prepPayload struct {
	XID    XID
	Shard  int
	Home   int
	Shards []int
	Reads  []RW
	Writes []RW
}

// decidePayload is the argument of a decide transaction.
type decidePayload struct {
	XID     XID
	Verdict Verdict
}

// recordKey is the durable decision record's key in CoordClass at the
// home shard. First write wins; later decides read it back instead.
func recordKey(x XID) storage.Key { return storage.Key("txn/" + x.String()) }

func (x XID) append(b []byte) []byte {
	b = binary.AppendVarint(b, int64(x.Origin))
	return binary.AppendUvarint(binary.AppendUvarint(b, x.Inc), x.Seq)
}

func readXID(r *transport.WireReader) XID {
	return XID{Origin: transport.NodeID(r.Varint()), Inc: r.Uvarint(), Seq: r.Uvarint()}
}

// encode writes the prepare argument: the attempt (origin, inc, seq),
// shard, home, the shard set (count, shards), then the reads and the
// writes (count; class, key, value as transport.AppendNullable writes
// it, the present flag).
func (p prepPayload) encode() storage.Value {
	b := binary.AppendVarint(binary.AppendVarint(p.XID.append(nil), int64(p.Shard)), int64(p.Home))
	b = binary.AppendUvarint(b, uint64(len(p.Shards)))
	for _, s := range p.Shards {
		b = binary.AppendVarint(b, int64(s))
	}
	for _, rws := range [][]RW{p.Reads, p.Writes} {
		b = binary.AppendUvarint(b, uint64(len(rws)))
		for _, rw := range rws {
			b = transport.AppendNullable(transport.AppendString(transport.AppendString(b, rw.Class), rw.Key), rw.Value)
			b = transport.AppendBool(b, rw.Present)
		}
	}
	return b
}

func decodePrepare(v storage.Value) (prepPayload, error) {
	r := transport.NewWireReader(v)
	p := prepPayload{XID: readXID(r), Shard: int(r.Varint()), Home: int(r.Varint())}
	if n := r.Count(1); n > 0 {
		p.Shards = make([]int, n)
		for i := range p.Shards {
			p.Shards[i] = int(r.Varint())
		}
	}
	p.Reads, p.Writes = readRWs(r), readRWs(r)
	if err := r.Done(); err != nil {
		return p, fmt.Errorf("shard: decode prepare: %w", err)
	}
	return p, nil
}

func readRWs(r *transport.WireReader) []RW {
	n := r.Count(4) // class, key, value and flag: a byte each or more
	if n == 0 {
		return nil
	}
	rws := make([]RW, n)
	for i := range rws {
		rws[i] = RW{Class: sproc.ClassID(r.Name()), Key: storage.Key(r.String()),
			Value: bytes.Clone(r.Nullable()), Present: r.Bool()}
	}
	return rws
}

// encode writes the decide argument: the attempt, then the verdict.
func (d decidePayload) encode() storage.Value {
	return binary.AppendVarint(d.XID.append(nil), int64(d.Verdict))
}

func decodeDecide(v storage.Value) (decidePayload, error) {
	r := transport.NewWireReader(v)
	d := decidePayload{XID: readXID(r), Verdict: Verdict(r.Varint())}
	if err := r.Done(); err != nil {
		return d, fmt.Errorf("shard: decode decide: %w", err)
	}
	return d, nil
}

// encodeVerdict renders a verdict as the decide record value.
func encodeVerdict(v Verdict) storage.Value { return storage.Value{byte(v)} }

// decodeVerdict parses a decide record value.
func decodeVerdict(b storage.Value) Verdict {
	if len(b) != 1 {
		return VerdictNone
	}
	switch Verdict(b[0]) {
	case VerdictCommit:
		return VerdictCommit
	case VerdictAbort:
		return VerdictAbort
	default:
		return VerdictNone
	}
}
