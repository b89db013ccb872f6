package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
)

// The tcpnet wire format. A connection opens with a 5-byte hello in each
// direction (wireMagic + wireVersion); after it the dialer sends data
// frames and the acceptor answers with 9-byte cumulative acks
// ([kindAck][u64 seq]). A data frame is
//
//	[u32 len][kind][u64 seq][u64 inc][from][stream][trace][tag][body]
//
// with len counting everything after itself, fixed-width fields
// big-endian, from a varint, stream and trace uvarint-length-prefixed
// strings. Everything from `from` on is the same for every link a
// message goes out on and is encoded once (appendShared); the 21 bytes
// before it carry the link's sequence number. A frame is self-contained:
// decoding it needs no state from earlier frames, so retransmitting is
// rewriting the same bytes.
//
// The body is written by the message's own codec, found under its tag:
//
//	0x00       any type known to Register     gob (cold paths: statex, obs,
//	                                          DefEntry)
//	0x01       nil
//	0x08       fd.Heartbeat                   internal/fd
//	0x10-0x14  consensus.Msg{Estimate,Propose,Ack,Decide,DecideReq}
//	                                          internal/consensus
//	0x20-0x23  abcast.{DataMsg,MsgID,[]MsgID,BodyReq}
//	                                          internal/abcast
//	0x30-0x31  sproc.Request, storage.Value   internal/sproc
//
// A field of type any inside a body (DataMsg.Payload, consensus Est/Val)
// is a nested value, [u32 len][tag][body], through the same table — so
// consensus carries abcast's id lists without importing abcast.
const (
	wireMagic   = "OTPW"
	wireVersion = 1

	kindData = 1
	kindAck  = 2

	// framePrefix is the per-link part of a data frame: len, kind, seq, inc.
	framePrefix = 4 + 1 + 8 + 8
	ackLen      = 1 + 8

	// maxFrame caps the len field. The largest frames are statex tail
	// chunks (1024 entries) and obs replies, well under a megabyte; a
	// claim above the cap is a corrupt or hostile stream.
	maxFrame = 64 << 20

	tagGob = 0x00
	tagNil = 0x01
)

var hello = [5]byte{wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3], wireVersion}

// errWire marks a peer that does not speak this wire format, as opposed
// to a connection that merely failed.
var errWire = errors.New("wire format violation")

// checkHello consumes and validates the peer's hello.
func checkHello(r io.Reader) error {
	var got [len(hello)]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if string(got[:4]) != wireMagic {
		return fmt.Errorf("%w: peer opened with % x, not %q (gob-era binary?)", errWire, got[:4], wireMagic)
	}
	if got[4] != wireVersion {
		return fmt.Errorf("%w: peer speaks wire version %d, this node %d", errWire, got[4], wireVersion)
	}
	return nil
}

// codec is one row of the tag table.
type codec struct {
	tag byte
	typ reflect.Type
	enc func(any, []byte) ([]byte, error)
	dec func([]byte) (any, error)
}

// codecTable is immutable once published; registration copies it.
type codecTable struct {
	byTag  [256]*codec
	byType map[reflect.Type]*codec
}

var (
	codecMu sync.Mutex // serializes registration
	codecs  atomic.Pointer[codecTable]
)

// Register makes concrete message types known to the gob codec that
// carries every message without a hand-written codec (tag 0), and every
// value nested inside such a message. Every type sent through
// Endpoint.Send/Broadcast as the dynamic value of Envelope.Msg must be
// registered by both ends, here or with RegisterCodec.
func Register(values ...any) {
	for _, v := range values {
		gob.Register(v)
	}
}

// RegisterCodec puts a hand-written codec for T into the tag table: enc
// appends the body to a buffer (conventionally the method T.AppendWire),
// dec parses exactly one body and must not retain it. Tags are stable
// wire constants from the owning package's range (see the table above).
// T stays registered with gob as well, for when it travels inside a
// tag-0 body. Registering the same pair again is a no-op; a tag or type
// claimed twice is a programming error.
func RegisterCodec[T any](tag byte, enc func(T, []byte) ([]byte, error), dec func([]byte) (T, error)) {
	var zero T
	typ := reflect.TypeOf(zero)
	codecMu.Lock()
	defer codecMu.Unlock()
	old := codecs.Load()
	if old != nil {
		byTag, byType := old.byTag[tag], old.byType[typ]
		if byTag != nil && byTag == byType {
			return
		}
		if byTag != nil || byType != nil {
			panic(fmt.Sprintf("transport: wire tag %#x / type %v registered twice", tag, typ))
		}
	}
	if tag == tagGob || tag == tagNil {
		panic(fmt.Sprintf("transport: wire tag %#x is reserved", tag))
	}
	gob.Register(zero)
	next := &codecTable{byType: map[reflect.Type]*codec{}}
	if old != nil {
		next.byTag = old.byTag
		for t, c := range old.byType {
			next.byType[t] = c
		}
	}
	c := &codec{
		tag: tag,
		typ: typ,
		enc: func(v any, b []byte) ([]byte, error) { return enc(v.(T), b) },
		dec: func(b []byte) (any, error) { return dec(b) },
	}
	next.byTag[tag], next.byType[typ] = c, c
	codecs.Store(next)
}

// appendValue appends [tag][body] for v.
func appendValue(b []byte, v any) ([]byte, error) {
	if v == nil {
		return append(b, tagNil), nil
	}
	if t := codecs.Load(); t != nil {
		if c := t.byType[reflect.TypeOf(v)]; c != nil {
			return c.enc(v, append(b, c.tag))
		}
	}
	return appendGob(b, v)
}

// appendGob is appendValue for types without a codec of their own. It is
// a function of its own so that taking v's address, which moves v to the
// heap, is not paid by the types that have one.
func appendGob(b []byte, v any) ([]byte, error) {
	w := appendWriter{append(b, tagGob)}
	if err := gob.NewEncoder(&w).Encode(&v); err != nil {
		return b, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	return w.b, nil
}

// decodeValue parses [tag][body], which must fill b.
func decodeValue(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("value without a tag")
	}
	tag, body := b[0], b[1:]
	switch tag {
	case tagNil:
		if len(body) != 0 {
			return nil, fmt.Errorf("nil value with a %d-byte body", len(body))
		}
		return nil, nil
	case tagGob:
		var v any
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
			return nil, fmt.Errorf("gob body: %v", err)
		}
		return v, nil
	}
	var c *codec
	if t := codecs.Load(); t != nil {
		c = t.byTag[tag]
	}
	if c == nil {
		return nil, fmt.Errorf("unknown tag %#x", tag)
	}
	v, err := c.dec(body)
	if err != nil {
		return nil, fmt.Errorf("tag %#x (%v): %v", tag, c.typ, err)
	}
	return v, nil
}

type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// AppendAny appends v as a nested value, [u32 len][tag][body]: what a
// codec calls for a field of type any.
func AppendAny(b []byte, v any) ([]byte, error) {
	at := len(b)
	b, err := appendValue(append(b, 0, 0, 0, 0), v)
	if err != nil {
		return b[:at], err
	}
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b, nil
}

// AppendString appends s behind its uvarint length.
func AppendString[S ~string](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// WireReader is a cursor over a body for hand-written decoders. The
// first malformed or truncated field sticks as the error Done reports,
// and every later read returns zero — a decoder reads its fields in
// order and checks once at the end.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader reads from b, which the reader never modifies.
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = errors.New(what)
	}
	r.b = nil
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *WireReader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads an element count and checks it against what the rest of
// the body could hold at elemSize bytes or more per element, so a decoder
// can size a slice by it without trusting the sender.
func (r *WireReader) Count(elemSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/elemSize) {
		r.fail("count exceeds body")
		return 0
	}
	return int(n)
}

// Take reads the next n bytes as they are. The result aliases the body:
// copy it before keeping it.
func (r *WireReader) Take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail("field exceeds body")
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Bytes reads a length-prefixed byte string; it aliases the body too.
func (r *WireReader) Bytes() []byte { return r.Take(r.Count(1)) }

// String reads a length-prefixed string.
func (r *WireReader) String() string { return string(r.Bytes()) }

// Name reads a length-prefixed string from a small vocabulary (stream,
// procedure and class names) and returns the process-wide shared copy.
func (r *WireReader) Name() string { return intern(r.Bytes()) }

// Any reads a nested value written by AppendAny.
func (r *WireReader) Any() any {
	if len(r.b) < 4 {
		r.fail("truncated nested value")
		return nil
	}
	n := binary.BigEndian.Uint32(r.b)
	if uint64(n) > uint64(len(r.b)-4) {
		r.fail("nested value exceeds body")
		return nil
	}
	v, err := decodeValue(r.b[4 : 4+n])
	if err != nil {
		r.err = err
		r.b = nil
		return nil
	}
	r.b = r.b[4+n:]
	return v
}

// Done reports the first decoding error, or trailing bytes.
func (r *WireReader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// names interns the short strings every frame repeats, so decoding a
// frame does not allocate its stream or procedure name again. Bounded:
// a peer inventing names gets plain strings once the table is full.
var names struct {
	sync.RWMutex
	m map[string]string
}

const maxNames = 4096

func intern(b []byte) string {
	names.RLock()
	s, ok := names.m[string(b)]
	names.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	names.Lock()
	if names.m == nil {
		names.m = make(map[string]string)
	}
	if len(names.m) < maxNames {
		names.m[s] = s
	}
	names.Unlock()
	return s
}

// framePool holds the scratch buffers Send and Broadcast encode into.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// appendShared appends the link-independent part of a data frame.
func appendShared(b []byte, from NodeID, stream string, msg any) ([]byte, error) {
	b = binary.AppendVarint(b, int64(from))
	b = AppendString(b, stream)
	b = AppendString(b, TraceOf(msg))
	b, err := appendValue(b, msg)
	if err != nil {
		return b, err
	}
	if len(b)+framePrefix-4 > maxFrame {
		return b, fmt.Errorf("transport: %T encodes to %d bytes, over the %d-byte frame cap", msg, len(b), maxFrame)
	}
	return b, nil
}

// appendFrame appends one whole data frame: the link's prefix, then the
// shared part.
func appendFrame(b []byte, seq, inc uint64, shared []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(framePrefix-4+len(shared)))
	b = append(b, kindData)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, inc)
	return append(b, shared...)
}

// frameLen is the length on the wire of the frame that starts at b[0].
func frameLen(b []byte) int { return 4 + int(binary.BigEndian.Uint32(b)) }

// frame is a decoded data frame. Sequence numbers are per directed link
// and let the receiver deduplicate retransmissions.
//
// Inc is the sender's incarnation: a clock-derived value fixed at node
// creation. A restarted process numbers its frames from 1 again; without
// the incarnation, peers that remember the pre-crash sequence floor
// would silently drop everything the new process sends (while still
// acknowledging it). A frame with a newer incarnation resets the
// receiver's dedup floor for that sender; frames from an older
// incarnation are stale retransmissions and are dropped.
//
// The clock-derived default assumes the host clock does not step
// backwards across a restart. If it does (NTP correction, VM snapshot
// restore), peers stay deaf to the restarted node until its clock
// passes the old incarnation — a visible availability failure (its
// state-transfer probes time out loudly), never silent divergence.
// Durable deployments close the window by passing a persisted
// monotonic incarnation (PersistentIncarnation) in TCPConfig; cmd/otpd
// does so whenever -data is set.
//
//otp:fence Inc
type frame struct {
	Seq   uint64
	Inc   uint64
	Trace string // trace ID of the payload's transaction ("" untraced)
	Env   Envelope
}

// frameReader reads data frames off one connection.
type frameReader struct {
	r *bufio.Reader
	// big holds a frame larger than r's buffer while it is read. It grows
	// as the bytes arrive, never to a length a header merely claims.
	big []byte
}

const (
	readBufSize = 16 << 10
	growStep    = 1 << 20
)

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize)}
}

// next reads and decodes one data frame. An error wrapping errWire means
// the stream is not (or no longer) in the wire format and the connection
// must be closed; any other error is the connection's own.
func (fr *frameReader) next() (frame, error) {
	hdr, err := fr.r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame || n < framePrefix-4 {
		return frame{}, fmt.Errorf("%w: frame length %d outside [%d, %d]", errWire, n, framePrefix-4, maxFrame)
	}
	_, _ = fr.r.Discard(4)
	if n <= readBufSize {
		// Decode in place; the codecs copy what they keep.
		b, err := fr.r.Peek(n)
		if err != nil {
			return frame{}, err
		}
		f, err := decodeFrame(b)
		_, _ = fr.r.Discard(n)
		return f, err
	}
	fr.big = nil
	for len(fr.big) < n {
		at := len(fr.big)
		fr.big = append(fr.big, make([]byte, min(n-at, growStep))...)
		if _, err := io.ReadFull(fr.r, fr.big[at:]); err != nil {
			return frame{}, err
		}
	}
	f, err := decodeFrame(fr.big)
	fr.big = nil // such frames are rare (state transfer): do not keep the space
	return f, err
}

// buffered reports whether more input is waiting to be decoded.
func (fr *frameReader) buffered() bool { return fr.r.Buffered() > 0 }

// decodeFrame parses what follows a data frame's len field.
func decodeFrame(b []byte) (frame, error) {
	if len(b) < framePrefix-4 || b[0] != kindData {
		return frame{}, fmt.Errorf("%w: not a data frame", errWire)
	}
	r := WireReader{b: b[framePrefix-4:]}
	env := Envelope{From: NodeID(r.Varint()), Stream: r.Name()}
	trace := r.String()
	err := r.err
	if err == nil {
		env.Msg, err = decodeValue(r.b)
	}
	if err != nil {
		return frame{}, fmt.Errorf("%w: %v", errWire, err)
	}
	return frame{
		Seq:   binary.BigEndian.Uint64(b[1:]),
		Inc:   binary.BigEndian.Uint64(b[9:]),
		Trace: trace,
		Env:   env,
	}, nil
}
