package abcast

import (
	"encoding/binary"

	"otpdb/internal/transport"
)

// Wire tags of this package's hand-written codecs (transport/wire.go has
// the table). Stable: changing one is a wire version change.
const (
	tagDataMsg = 0x20 + iota
	tagMsgID
	tagMsgIDs
	tagBodyReq
)

// RegisterWire makes the broadcast message types known to the TCP
// transport: codecs for what every commit sends, gob for the
// retained-history entries state transfer streams.
// Payload types must be registered separately.
func RegisterWire() {
	transport.RegisterCodec(tagDataMsg, DataMsg.AppendWire, decodeDataMsg)
	transport.RegisterCodec(tagMsgID, MsgID.AppendWire, decodeMsgID)
	transport.RegisterCodec(tagMsgIDs, appendMsgIDs, decodeMsgIDs)
	transport.RegisterCodec(tagBodyReq, BodyReq.AppendWire, decodeBodyReq)
	transport.Register(DefEntry{}, []DefEntry(nil))
}

func (m MsgID) append(b []byte) []byte {
	b = binary.AppendVarint(b, int64(m.Origin))
	return binary.AppendUvarint(b, m.Seq)
}

func readMsgID(r *transport.WireReader) MsgID {
	return MsgID{Origin: transport.NodeID(r.Varint()), Seq: r.Uvarint()}
}

// AppendWire appends the id: origin varint, seq uvarint.
func (m MsgID) AppendWire(b []byte) ([]byte, error) { return m.append(b), nil }

func decodeMsgID(b []byte) (MsgID, error) {
	r := transport.NewWireReader(b)
	m := readMsgID(r)
	return m, r.Done()
}

// appendMsgIDs appends a count and the ids — a stage proposal, the value
// consensus carries for this package.
func appendMsgIDs(ids []MsgID, b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = id.append(b)
	}
	return b, nil
}

func decodeMsgIDs(b []byte) ([]MsgID, error) {
	r := transport.NewWireReader(b)
	var ids []MsgID
	if n := r.Count(2); n > 0 { // an id is two bytes or more
		ids = make([]MsgID, n)
		for i := range ids {
			ids[i] = readMsgID(r)
		}
	}
	return ids, r.Done()
}

// AppendWire appends the id, then the payload as a nested value.
func (d DataMsg) AppendWire(b []byte) ([]byte, error) {
	return transport.AppendAny(d.ID.append(b), d.Payload)
}

func decodeDataMsg(b []byte) (DataMsg, error) {
	r := transport.NewWireReader(b)
	d := DataMsg{ID: readMsgID(r), Payload: r.Any()}
	return d, r.Done()
}

// AppendWire appends the requested ids.
func (q BodyReq) AppendWire(b []byte) ([]byte, error) { return appendMsgIDs(q.IDs, b) }

func decodeBodyReq(b []byte) (BodyReq, error) {
	ids, err := decodeMsgIDs(b)
	return BodyReq{IDs: ids}, err
}
