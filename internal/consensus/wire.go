package consensus

import (
	"encoding/binary"

	"otpdb/internal/transport"
)

// Wire tags of this package's hand-written codecs (transport/wire.go has
// the table). Stable: changing one is a wire version change.
const (
	tagEstimate = 0x10 + iota
	tagPropose
	tagAck
	tagDecide
	tagDecideReq
)

// RegisterWire makes the engine's message types known to the TCP
// transport. Proposed values travel as nested values and are registered
// by the package that proposes them.
func RegisterWire() {
	transport.RegisterCodec(tagEstimate, MsgEstimate.AppendWire, decodeEstimate)
	transport.RegisterCodec(tagPropose, MsgPropose.AppendWire, decodePropose)
	transport.RegisterCodec(tagAck, MsgAck.AppendWire, decodeAck)
	transport.RegisterCodec(tagDecide, MsgDecide.AppendWire, decodeDecide)
	transport.RegisterCodec(tagDecideReq, MsgDecideReq.AppendWire, decodeDecideReq)
}

// appendBallot appends what estimate, propose and ack have in common.
func appendBallot(b []byte, inst uint64, round int, epoch uint64) []byte {
	b = binary.AppendUvarint(b, inst)
	b = binary.AppendVarint(b, int64(round))
	return binary.AppendUvarint(b, epoch)
}

// AppendWire appends inst, round, epoch, ts, ts-epoch, then the estimate
// as a nested value.
//
//otp:fenced encoder: the sender stamps its own epoch; receivers fence in the engine's handlers
func (m MsgEstimate) AppendWire(b []byte) ([]byte, error) {
	b = appendBallot(b, m.Inst, m.Round, m.Epoch)
	b = binary.AppendVarint(b, int64(m.TS))
	b = binary.AppendUvarint(b, m.TSEpoch)
	return transport.AppendAny(b, m.Est)
}

func decodeEstimate(b []byte) (MsgEstimate, error) {
	r := transport.NewWireReader(b)
	m := MsgEstimate{Inst: r.Uvarint(), Round: int(r.Varint()), Epoch: r.Uvarint(),
		TS: int(r.Varint()), TSEpoch: r.Uvarint(), Est: r.Any()}
	return m, r.Done()
}

// AppendWire appends inst, round, epoch, then the value as a nested value.
//
//otp:fenced encoder: the sender stamps its own epoch; receivers fence in the engine's handlers
func (m MsgPropose) AppendWire(b []byte) ([]byte, error) {
	return transport.AppendAny(appendBallot(b, m.Inst, m.Round, m.Epoch), m.Val)
}

func decodePropose(b []byte) (MsgPropose, error) {
	r := transport.NewWireReader(b)
	m := MsgPropose{Inst: r.Uvarint(), Round: int(r.Varint()), Epoch: r.Uvarint(), Val: r.Any()}
	return m, r.Done()
}

// AppendWire appends inst, round, epoch.
//
//otp:fenced encoder: the sender stamps its own epoch; receivers fence in the engine's handlers
func (m MsgAck) AppendWire(b []byte) ([]byte, error) {
	return appendBallot(b, m.Inst, m.Round, m.Epoch), nil
}

func decodeAck(b []byte) (MsgAck, error) {
	r := transport.NewWireReader(b)
	m := MsgAck{Inst: r.Uvarint(), Round: int(r.Varint()), Epoch: r.Uvarint()}
	return m, r.Done()
}

// AppendWire appends inst, then the decision as a nested value.
func (m MsgDecide) AppendWire(b []byte) ([]byte, error) {
	return transport.AppendAny(binary.AppendUvarint(b, m.Inst), m.Val)
}

func decodeDecide(b []byte) (MsgDecide, error) {
	r := transport.NewWireReader(b)
	m := MsgDecide{Inst: r.Uvarint(), Val: r.Any()}
	return m, r.Done()
}

// AppendWire appends the first instance wanted.
func (m MsgDecideReq) AppendWire(b []byte) ([]byte, error) {
	return binary.AppendUvarint(b, m.From), nil
}

func decodeDecideReq(b []byte) (MsgDecideReq, error) {
	r := transport.NewWireReader(b)
	m := MsgDecideReq{From: r.Uvarint()}
	return m, r.Done()
}
