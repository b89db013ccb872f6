package statex

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"otpdb/internal/abcast"
	"otpdb/internal/transport"
)

// Wire tags of the transfer messages (transport/wire.go has the table).
// Stable: changing one is a wire version change.
const (
	tagJoinReq = 0x40 + iota
	tagJoinResp
	tagCkptChunk
	tagTailChunk
	tagDone
	tagAbort
)

// RegisterWire makes the state-transfer message types known to the TCP
// transport. A TailChunk's entries are abcast's, registered by
// abcast.RegisterWire.
func RegisterWire() {
	transport.RegisterCodec(tagJoinReq, JoinReq.AppendWire, decodeJoinReq)
	transport.RegisterCodec(tagJoinResp, JoinResp.AppendWire, decodeJoinResp)
	transport.RegisterCodec(tagCkptChunk, CkptChunk.AppendWire, decodeCkptChunk)
	transport.RegisterCodec(tagTailChunk, TailChunk.AppendWire, decodeTailChunk)
	transport.RegisterCodec(tagDone, Done.AppendWire, decodeDone)
	transport.RegisterCodec(tagAbort, Abort.AppendWire, decodeAbort)
}

// AppendWire appends xfer and the advertised index.
func (m JoinReq) AppendWire(b []byte) ([]byte, error) {
	return binary.AppendVarint(binary.AppendUvarint(b, m.Xfer), m.From), nil
}

func decodeJoinReq(b []byte) (JoinReq, error) {
	r := transport.NewWireReader(b)
	m := JoinReq{Xfer: r.Uvarint(), From: r.Varint()}
	return m, r.Done()
}

// AppendWire appends xfer, mode and the refusal text.
//
//otp:fenced encoder: the donor stamps the joiner's transfer id; Fetch drops a stale one
func (m JoinResp) AppendWire(b []byte) ([]byte, error) {
	b = binary.AppendVarint(binary.AppendUvarint(b, m.Xfer), int64(m.Mode))
	return transport.AppendString(b, m.Err), nil
}

func decodeJoinResp(b []byte) (JoinResp, error) {
	r := transport.NewWireReader(b)
	m := JoinResp{Xfer: r.Uvarint(), Mode: Mode(r.Varint()), Err: r.String()}
	return m, r.Done()
}

// AppendWire appends xfer, seq, the data (nil kept apart from empty), its
// CRC and the last flag.
//
//otp:fenced encoder: the donor stamps the joiner's transfer id; Fetch drops a stale one
func (m CkptChunk) AppendWire(b []byte) ([]byte, error) {
	b = binary.AppendVarint(binary.AppendUvarint(b, m.Xfer), int64(m.Seq))
	b = transport.AppendNullable(b, m.Data)
	return transport.AppendBool(binary.AppendUvarint(b, uint64(m.CRC)), m.Last), nil
}

func decodeCkptChunk(b []byte) (CkptChunk, error) {
	r := transport.NewWireReader(b)
	m := CkptChunk{Xfer: r.Uvarint(), Seq: int(r.Varint()), Data: bytes.Clone(r.Nullable()),
		CRC: uint32(r.Uvarint()), Last: r.Bool()}
	return m, r.Done()
}

// AppendWire appends xfer, seq, then the entries as a nested value.
//
//otp:fenced encoder: the donor stamps the joiner's transfer id; Fetch drops a stale one
func (m TailChunk) AppendWire(b []byte) ([]byte, error) {
	b = binary.AppendVarint(binary.AppendUvarint(b, m.Xfer), int64(m.Seq))
	return transport.AppendAny(b, m.Entries)
}

func decodeTailChunk(b []byte) (TailChunk, error) {
	r := transport.NewWireReader(b)
	m := TailChunk{Xfer: r.Uvarint(), Seq: int(r.Varint())}
	v := r.Any()
	es, ok := v.([]abcast.DefEntry)
	if !ok && r.Done() == nil {
		return m, fmt.Errorf("tail chunk carries %T, not entries", v)
	}
	m.Entries = es
	return m, r.Done()
}

// AppendWire appends xfer, the resume stage and sequence floor, the
// delivered ranges (count, then origin, lo, hi), the chunk count, the
// frontier and the error text.
//
//otp:fenced encoder: the donor stamps the joiner's transfer id; Fetch drops a stale one
func (m Done) AppendWire(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(binary.AppendUvarint(b, m.Xfer), m.StartStage)
	b = binary.AppendUvarint(binary.AppendUvarint(b, m.ResumeSeq), uint64(len(m.Delivered)))
	for _, d := range m.Delivered {
		b = binary.AppendUvarint(binary.AppendVarint(b, int64(d.Origin)), d.Lo)
		b = binary.AppendUvarint(b, d.Hi)
	}
	b = binary.AppendVarint(binary.AppendVarint(b, int64(m.Chunks)), m.Frontier)
	return transport.AppendString(b, m.Err), nil
}

//otp:fenced decoder: Fetch drops a Done of another transfer
func decodeDone(b []byte) (Done, error) {
	r := transport.NewWireReader(b)
	m := Done{Xfer: r.Uvarint(), StartStage: r.Uvarint(), ResumeSeq: r.Uvarint()}
	if n := r.Count(3); n > 0 { // a range is three bytes or more
		m.Delivered = make([]abcast.SeqRange, n)
		for i := range m.Delivered {
			m.Delivered[i] = abcast.SeqRange{Origin: transport.NodeID(r.Varint()), Lo: r.Uvarint(), Hi: r.Uvarint()}
		}
	}
	m.Chunks, m.Frontier, m.Err = int(r.Varint()), r.Varint(), r.String()
	return m, r.Done()
}

// AppendWire appends xfer.
func (m Abort) AppendWire(b []byte) ([]byte, error) { return binary.AppendUvarint(b, m.Xfer), nil }

func decodeAbort(b []byte) (Abort, error) {
	r := transport.NewWireReader(b)
	m := Abort{Xfer: r.Uvarint()}
	return m, r.Done()
}
