package transport_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/fd"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

func registerAll() {
	fd.RegisterWire()
	consensus.RegisterWire()
	abcast.RegisterWire()
	db.RegisterWire()
}

func manyIDs(n int) []abcast.MsgID {
	ids := make([]abcast.MsgID, n)
	for i := range ids {
		ids[i] = abcast.MsgID{Origin: transport.NodeID(i % 3), Seq: uint64(i) * 977}
	}
	return ids
}

var putRequest = sproc.Request{Proc: "put-c3",
	Args: []storage.Value{storage.Value("key-0421"), bytes.Repeat([]byte{0xab}, 128)}}

// wireCase is one value of a type with a hand-written codec. gobLossy
// marks values gob cannot carry faithfully (it drops empty slices), which
// the codec must: those skip the differential test.
type wireCase struct {
	name     string
	tag      byte
	v        any
	gobLossy bool
}

func wireCases() []wireCase {
	ids := manyIDs(3)
	return []wireCase{
		{"heartbeat/zero", 0x08, fd.Heartbeat{}, false},
		{"heartbeat", 0x08, fd.Heartbeat{Inc: 1 << 63}, false},

		{"estimate/zero", 0x10, consensus.MsgEstimate{}, false},
		{"estimate", 0x10, consensus.MsgEstimate{Inst: 9, Round: 2, Epoch: 4, Est: ids, TS: 3, TSEpoch: 4}, false},
		{"propose/zero", 0x11, consensus.MsgPropose{}, false},
		{"propose", 0x11, consensus.MsgPropose{Inst: 1 << 40, Round: 0, Epoch: 1, Val: ids}, false},
		{"propose/10000 ids", 0x11, consensus.MsgPropose{Inst: 7, Val: manyIDs(10000)}, false},
		{"propose/foreign value", 0x11, consensus.MsgPropose{Inst: 7, Val: "a string rides as gob"}, false},
		{"ack/zero", 0x12, consensus.MsgAck{}, false},
		{"ack", 0x12, consensus.MsgAck{Inst: 12, Round: 1, Epoch: 3}, false},
		{"ack/negative round", 0x12, consensus.MsgAck{Round: -1}, false},
		{"decide/zero", 0x13, consensus.MsgDecide{}, false},
		{"decide", 0x13, consensus.MsgDecide{Inst: 5, Val: ids}, false},
		{"decidereq/zero", 0x14, consensus.MsgDecideReq{}, false},
		{"decidereq", 0x14, consensus.MsgDecideReq{From: 77}, false},

		{"data/zero", 0x20, abcast.DataMsg{}, false},
		{"data/put", 0x20, abcast.DataMsg{ID: abcast.MsgID{Origin: 2, Seq: 31}, Payload: putRequest}, false},
		{"data/foreign payload", 0x20, abcast.DataMsg{ID: abcast.MsgID{Seq: 1}, Payload: 42}, false},
		{"msgid/zero", 0x21, abcast.MsgID{}, false},
		{"msgid", 0x21, abcast.MsgID{Origin: 1, Seq: 1<<64 - 1}, false},
		{"msgids/nil", 0x22, []abcast.MsgID(nil), false},
		{"msgids", 0x22, ids, false},
		{"bodyreq/zero", 0x23, abcast.BodyReq{}, false},
		{"bodyreq", 0x23, abcast.BodyReq{IDs: ids}, false},

		{"request/zero", 0x30, sproc.Request{}, false},
		{"request/put", 0x30, putRequest, false},
		{"request/traced", 0x30, sproc.Request{Proc: "xfer", Args: []storage.Value{storage.Value("a")},
			Classes: []sproc.ClassID{"c1", "c7"}, Trace: "t0.12.99"}, false},
		{"request/nil and empty args", 0x30, sproc.Request{Proc: "p",
			Args: []storage.Value{nil, {}, storage.Value("x"), {}}}, true},
		{"value/nil", 0x31, storage.Value(nil), false},
		{"value/empty", 0x31, storage.Value{}, true},
		{"value", 0x31, storage.Value("v"), false},
	}
}

// TestWireRoundTrip: every hand-written codec gives back what it was
// given — zero values, nil and empty byte strings kept apart — under its
// own tag.
func TestWireRoundTrip(t *testing.T) {
	registerAll()
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			b, err := transport.AppendValue(nil, c.v)
			if err != nil {
				t.Fatal(err)
			}
			if b[0] != c.tag {
				t.Fatalf("encoded under tag %#x, want %#x", b[0], c.tag)
			}
			got, err := transport.DecodeValue(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, c.v) {
				t.Fatalf("round trip:\n got %#v\nwant %#v", got, c.v)
			}
			// Appending behind a prefix must leave the prefix alone.
			pre, err := transport.AppendValue([]byte("prefix"), c.v)
			if err != nil || !bytes.Equal(pre[6:], b) || string(pre[:6]) != "prefix" {
				t.Fatalf("append behind a prefix differs (err %v)", err)
			}
		})
	}
}

// TestWireMatchesGob: the codec and the tag-0 gob body both stand for the
// same value — the hand-written path is an encoding, not a new meaning.
func TestWireMatchesGob(t *testing.T) {
	registerAll()
	for _, c := range wireCases() {
		if c.gobLossy {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			hand, err := transport.AppendValue(nil, c.v)
			if err != nil {
				t.Fatal(err)
			}
			viaGob, err := transport.AppendGob(nil, c.v)
			if err != nil {
				t.Fatal(err)
			}
			if viaGob[0] != 0 {
				t.Fatalf("gob body under tag %#x", viaGob[0])
			}
			a, err := transport.DecodeValue(hand)
			if err != nil {
				t.Fatal(err)
			}
			b, err := transport.DecodeValue(viaGob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("codec and gob disagree:\ncodec %#v\n  gob %#v", a, b)
			}
			if len(hand) >= len(viaGob) {
				t.Errorf("codec body is %d bytes, gob's %d: expected smaller", len(hand), len(viaGob))
			}
		})
	}
}

// TestWireRejects: truncated bodies, trailing bytes, counts larger than
// the body and unknown tags are errors, never panics or large
// allocations.
func TestWireRejects(t *testing.T) {
	registerAll()
	for _, c := range wireCases() {
		b, err := transport.AppendValue(nil, c.v)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(b); cut += 1 + len(b)/64 {
			if v, err := transport.DecodeValue(b[:cut]); err == nil && !reflect.DeepEqual(v, c.v) {
				// A prefix may happen to be a valid shorter value; it must
				// then encode back to exactly that prefix.
				again, _ := transport.AppendValue(nil, v)
				if !bytes.Equal(again, b[:cut]) {
					t.Errorf("%s: %d-byte prefix of %d decoded to %#v", c.name, cut, len(b), v)
				}
			}
		}
		if _, err := transport.DecodeValue(append(b[:len(b):len(b)], 0)); err == nil && b[0] != 0 {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
	for name, b := range map[string][]byte{
		"empty":             {},
		"unknown tag":       {0x7f, 1, 2, 3},
		"nil with a body":   {0x01, 0},
		"id count 2^62":     {0x22, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f},
		"arg count 2^62":    {0x30, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f},
		"value length 2^62": {0x31, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f},
		"nested overrun":    {0x13, 0x05, 0xff, 0xff, 0xff, 0xff, 0x22},
	} {
		if v, err := transport.DecodeValue(b); err == nil {
			t.Errorf("%s: decoded to %#v", name, v)
		}
	}
}

// TestWireUnregisteredType: a type neither codec knows is an error from
// the encoder (and so from Send), not a frame the peer chokes on.
func TestWireUnregisteredType(t *testing.T) {
	type stranger struct{ X int }
	_, err := transport.AppendValue(nil, abcast.DataMsg{Payload: stranger{1}})
	if err == nil || !strings.Contains(err.Error(), "stranger") {
		t.Fatalf("err = %v, want one naming the type", err)
	}
}

// TestWireAllocs is the ceiling on what a put costs the allocator on its
// way through the codec: nothing to encode into a buffer that has room,
// and on the way back the two interface boxes (DataMsg, Request), the
// argument slice and one array behind all argument bytes.
func TestWireAllocs(t *testing.T) {
	registerAll()
	var msg any = abcast.DataMsg{ID: abcast.MsgID{Origin: 1, Seq: 99}, Payload: putRequest}
	buf := make([]byte, 0, 1024)
	var sink any
	allocs := testing.AllocsPerRun(1000, func() {
		b, err := transport.AppendShared(buf, 1, abcast.StreamData, msg)
		if err != nil {
			t.Fatal(err)
		}
		b = transport.AppendFrame(buf[len(b):len(b)], 7, 1, b)
		f, err := transport.DecodeFrame(b[4:])
		if err != nil {
			t.Fatal(err)
		}
		sink = f.Env.Msg
	})
	if !reflect.DeepEqual(sink, msg) {
		t.Fatalf("got %#v", sink)
	}
	if allocs > 4 {
		t.Fatalf("encode+decode of a put DataMsg: %.0f allocations, ceiling 4", allocs)
	}
}

// TestWireSizes pins the bytes a commit puts on the wire (DESIGN.md §6
// quotes them).
func TestWireSizes(t *testing.T) {
	registerAll()
	size := func(stream string, msg any) int {
		b, err := transport.AppendShared(nil, 0, stream, msg)
		if err != nil {
			t.Fatal(err)
		}
		return transport.FramePrefix + len(b)
	}
	ids := []abcast.MsgID{{Origin: 0, Seq: 1000}}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"put DataMsg", size(abcast.StreamData, abcast.DataMsg{ID: ids[0], Payload: putRequest}), 189},
		{"estimate", size(consensus.Stream, consensus.MsgEstimate{Inst: 1000, Est: ids}), 44},
		{"propose", size(consensus.Stream, consensus.MsgPropose{Inst: 1000, Val: ids}), 42},
		{"ack", size(consensus.Stream, consensus.MsgAck{Inst: 1000}), 33},
	} {
		if c.got != c.want {
			t.Errorf("%s frame: %d bytes, DESIGN.md says %d", c.name, c.got, c.want)
		}
	}
}

// FuzzWireBody feeds arbitrary bodies to every codec in the tag table
// (and to the gob fallback, and to tags nobody owns). No input may panic
// a decoder; what decodes must encode, and that encoding must be stable.
func FuzzWireBody(f *testing.F) {
	registerAll()
	for _, c := range wireCases() {
		b, err := transport.AppendValue(nil, c.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[0], b[1:])
		if viaGob, err := transport.AppendGob(nil, c.v); err == nil && len(b) < 1000 {
			f.Add(viaGob[0], viaGob[1:])
		}
	}
	f.Add(byte(0x7f), []byte("nobody's tag"))
	f.Fuzz(func(t *testing.T, tag byte, body []byte) {
		v, err := transport.DecodeValue(append([]byte{tag}, body...))
		if err != nil {
			return
		}
		again, err := transport.AppendValue(nil, v)
		if err != nil {
			t.Fatalf("%#v decoded from tag %#x does not encode: %v", v, tag, err)
		}
		back, err := transport.DecodeValue(again)
		if err != nil {
			t.Fatalf("%#v does not survive re-encoding: %v", v, err)
		}
		if third, err := transport.AppendValue(nil, back); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %#v / %#v (%v)", v, back, err)
		}
	})
}
