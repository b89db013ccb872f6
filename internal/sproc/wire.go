package sproc

import (
	"bytes"
	"encoding/binary"

	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// Wire tags of the payload codecs (transport/wire.go has the table).
// Stable: changing one is a wire version change.
const (
	tagRequest = 0x30 + iota
	tagValue
)

// RegisterWire makes the update request and its argument type known to
// the TCP transport.
func RegisterWire() {
	transport.RegisterCodec(tagRequest, Request.AppendWire, decodeRequest)
	transport.RegisterCodec(tagValue, appendValue, decodeValue)
}

// appendValue appends the value as transport.AppendNullable writes it, so
// a nil value and an empty one stay apart.
func appendValue(v storage.Value, b []byte) ([]byte, error) {
	return transport.AppendNullable(b, v), nil
}

func decodeValue(b []byte) (storage.Value, error) {
	r := transport.NewWireReader(b)
	v := bytes.Clone(r.Nullable())
	return v, r.Done()
}

// AppendWire appends the procedure name, the arguments (count, then each
// as appendValue writes it), the classes (count, names) and the trace id.
func (q Request) AppendWire(b []byte) ([]byte, error) {
	b = transport.AppendString(b, q.Proc)
	b = binary.AppendUvarint(b, uint64(len(q.Args)))
	for _, a := range q.Args {
		b = transport.AppendNullable(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(q.Classes)))
	for _, c := range q.Classes {
		b = transport.AppendString(b, c)
	}
	return transport.AppendString(b, q.Trace), nil
}

func decodeRequest(b []byte) (Request, error) {
	r := transport.NewWireReader(b)
	q := Request{Proc: r.Name()}
	if n := r.Count(1); n > 0 {
		// One array behind all the arguments: values are immutable, and a
		// request's arguments live and die together.
		size, scan := 0, *r
		for i := 0; i < n; i++ {
			size += len(scan.Nullable())
		}
		q.Args = make([]storage.Value, n)
		backing := make([]byte, 0, size)
		for i := range q.Args {
			if p := r.Nullable(); p != nil {
				at := len(backing)
				backing = append(backing, p...)
				q.Args[i] = backing[at:len(backing):len(backing)]
			}
		}
	}
	if n := r.Count(1); n > 0 {
		q.Classes = make([]ClassID, n)
		for i := range q.Classes {
			q.Classes[i] = ClassID(r.Name())
		}
	}
	q.Trace = r.String()
	return q, r.Done()
}
