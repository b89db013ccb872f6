package transport_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/fd"
	"otpdb/internal/metrics"
	"otpdb/internal/obs"
	"otpdb/internal/sproc"
	"otpdb/internal/statex"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

func registerAll() {
	fd.RegisterWire()
	consensus.RegisterWire()
	abcast.RegisterWire()
	db.RegisterWire()
	statex.RegisterWire()
	obs.RegisterWire()
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

// wireCase is one value of a type with a hand-written codec.
type wireCase struct {
	name string
	tag  byte
	v    any
	kind caseKind
}

type caseKind int

const (
	exact    caseKind = iota
	gobLossy          // gob cannot carry it faithfully (it drops empty slices); the codec must
	refused           // it nests a value of a type without a codec: an encode error
)

var (
	entries = []abcast.DefEntry{{Seq: 41, ID: abcast.MsgID{Origin: 2, Seq: 31}, Payload: putRequest, HasBody: true},
		{Seq: 42, ID: abcast.MsgID{Origin: 1, Seq: 3}}}
	span = metrics.TraceEvent{Txn: "m0.4", Trace: "tx0.1.7", Span: "commit", Site: 2, Shard: 1,
		At: time.Unix(0, 1_700_000_000_123_456_789), Note: "after 2 aborts"}
	hist = metrics.HistExport{Count: 3, Sum: 9_000, Min: 1_000, Max: 5_000,
		Buckets: []metrics.BucketCount{{Idx: 3, N: 2}, {Idx: 40, N: 1}}}
	samples = []metrics.WireSample{
		{Name: "otp_reorder_total", Labels: []metrics.Label{{Key: "site", Value: "2"}}, Kind: metrics.KindCounter, Value: 17},
		{Name: "otp_opt_def_latency", Kind: metrics.KindHistogram, Value: -0.5, Hist: &hist},
	}
)

func wireCases() []wireCase {
	ids := manyIDs(3)
	return []wireCase{
		{"heartbeat/zero", 0x08, fd.Heartbeat{}, exact},
		{"heartbeat", 0x08, fd.Heartbeat{Inc: 1 << 63}, exact},

		{"estimate/zero", 0x10, consensus.MsgEstimate{}, exact},
		{"estimate", 0x10, consensus.MsgEstimate{Inst: 9, Round: 2, Epoch: 4, Est: ids, TS: 3, TSEpoch: 4}, exact},
		{"propose/zero", 0x11, consensus.MsgPropose{}, exact},
		{"propose", 0x11, consensus.MsgPropose{Inst: 1 << 40, Round: 0, Epoch: 1, Val: ids}, exact},
		{"propose/10000 ids", 0x11, consensus.MsgPropose{Inst: 7, Val: manyIDs(10000)}, exact},
		{"propose/foreign value", 0x11, consensus.MsgPropose{Inst: 7, Val: "a string has no codec"}, refused},
		{"ack/zero", 0x12, consensus.MsgAck{}, exact},
		{"ack", 0x12, consensus.MsgAck{Inst: 12, Round: 1, Epoch: 3}, exact},
		{"ack/negative round", 0x12, consensus.MsgAck{Round: -1}, exact},
		{"decide/zero", 0x13, consensus.MsgDecide{}, exact},
		{"decide", 0x13, consensus.MsgDecide{Inst: 5, Val: ids}, exact},
		{"decidereq/zero", 0x14, consensus.MsgDecideReq{}, exact},
		{"decidereq", 0x14, consensus.MsgDecideReq{From: 77}, exact},

		{"data/zero", 0x20, abcast.DataMsg{}, exact},
		{"data/put", 0x20, abcast.DataMsg{ID: abcast.MsgID{Origin: 2, Seq: 31}, Payload: putRequest}, exact},
		{"data/foreign payload", 0x20, abcast.DataMsg{ID: abcast.MsgID{Seq: 1}, Payload: 42}, refused},
		{"msgid/zero", 0x21, abcast.MsgID{}, exact},
		{"msgid", 0x21, abcast.MsgID{Origin: 1, Seq: 1<<64 - 1}, exact},
		{"msgids/nil", 0x22, []abcast.MsgID(nil), exact},
		{"msgids", 0x22, ids, exact},
		{"bodyreq/zero", 0x23, abcast.BodyReq{}, exact},
		{"bodyreq", 0x23, abcast.BodyReq{IDs: ids}, exact},
		{"defentries/nil", 0x24, []abcast.DefEntry(nil), exact},
		{"defentries", 0x24, entries, exact},

		{"request/zero", 0x30, sproc.Request{}, exact},
		{"request/put", 0x30, putRequest, exact},
		{"request/traced", 0x30, sproc.Request{Proc: "xfer", Args: []storage.Value{storage.Value("a")},
			Classes: []sproc.ClassID{"c1", "c7"}, Trace: "t0.12.99"}, exact},
		{"request/nil and empty args", 0x30, sproc.Request{Proc: "p",
			Args: []storage.Value{nil, {}, storage.Value("x"), {}}}, gobLossy},
		{"value/nil", 0x31, storage.Value(nil), exact},
		{"value/empty", 0x31, storage.Value{}, gobLossy},
		{"value", 0x31, storage.Value("v"), exact},

		{"joinreq/zero", 0x40, statex.JoinReq{}, exact},
		{"joinreq", 0x40, statex.JoinReq{Xfer: 1 << 62, From: 4096}, exact},
		{"joinresp/zero", 0x41, statex.JoinResp{}, exact},
		{"joinresp", 0x41, statex.JoinResp{Xfer: 3, Mode: statex.CheckpointTail, Err: "busy"}, exact},
		{"ckptchunk/zero", 0x42, statex.CkptChunk{}, exact},
		{"ckptchunk", 0x42, statex.CkptChunk{Xfer: 3, Seq: 7, Data: []byte("OTPC\x01\x80"), CRC: 1<<32 - 1, Last: true}, exact},
		{"tailchunk/zero", 0x43, statex.TailChunk{}, exact},
		{"tailchunk", 0x43, statex.TailChunk{Xfer: 3, Seq: 2, Entries: entries}, exact},
		{"done/zero", 0x44, statex.Done{}, exact},
		{"done", 0x44, statex.Done{Xfer: 3, StartStage: 900, ResumeSeq: 77, Chunks: 4, Frontier: 12_000,
			Delivered: []abcast.SeqRange{{Origin: 0, Lo: 1, Hi: 70}, {Origin: 2, Lo: 1 << 20, Hi: 1<<20 + 5}}}, exact},
		{"done/error", 0x44, statex.Done{Xfer: 3, Err: "checkpoint failed"}, exact},
		{"abort/zero", 0x45, statex.Abort{}, exact},
		{"abort", 0x45, statex.Abort{Xfer: 3}, exact},

		{"query/zero", 0x50, obs.Query{}, exact},
		{"query", 0x50, obs.Query{Nonce: 5, Kind: "trace", Key: "tx0.1.7"}, exact},
		{"reply/zero", 0x51, obs.Reply{}, exact},
		{"reply/spans", 0x51, obs.Reply{Nonce: 5, Kind: "trace", Site: 2, Epoch: 3, Spans: []metrics.TraceEvent{span, span}}, exact},
		{"reply/samples", 0x51, obs.Reply{Nonce: 6, Kind: "metrics", Site: 1, Epoch: 3, Samples: samples}, exact},
	}
}

// TestWireRoundTrip: every hand-written codec gives back what it was
// given — zero values, nil and empty byte strings kept apart — under its
// own tag, and a value nesting a type without a codec is an encode error.
func TestWireRoundTrip(t *testing.T) {
	registerAll()
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			b, err := transport.AppendValue(nil, c.v)
			if c.kind == refused {
				if err == nil {
					t.Fatalf("encoded to % x, want an error", b)
				}
				return
			}
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

// gobBody encodes v with encoding/gob, the reference the codecs are
// checked against: the format every cold-path message had before they
// all got codecs.
func gobBody(t testing.TB, v any) []byte {
	for _, c := range wireCases() {
		gob.Register(c.v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireMatchesGob: the codec and gob both stand for the same value —
// the hand-written path is an encoding, not a new meaning — and the codec
// refuses what it cannot carry where gob would have carried it.
func TestWireMatchesGob(t *testing.T) {
	registerAll()
	for _, c := range wireCases() {
		if c.kind == gobLossy {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			viaGob := gobBody(t, c.v)
			hand, err := transport.AppendValue(nil, c.v)
			if c.kind == refused {
				if err == nil {
					t.Fatal("the codec carried a value gob alone could")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			a, err := transport.DecodeValue(hand)
			if err != nil {
				t.Fatal(err)
			}
			var b any
			if err := gob.NewDecoder(bytes.NewReader(viaGob)).Decode(&b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("codec and gob disagree:\ncodec %#v\n  gob %#v", a, b)
			}
			if len(hand)-1 >= len(viaGob) {
				t.Errorf("codec body is %d bytes, gob's %d: expected smaller", len(hand)-1, len(viaGob))
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
		if c.kind == refused {
			continue
		}
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
		if _, err := transport.DecodeValue(append(b[:len(b):len(b)], 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
	for name, b := range map[string][]byte{
		"empty":             {},
		"tag 0 (gob body)":  {0x00, 0x03, 0x04, 0x00, 0x07},
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
// (seeded with each codec's own bodies and with gob's bytes for the same
// values) and to tags nobody owns. No input may panic a decoder; what
// decodes must encode, and that encoding must be stable.
func FuzzWireBody(f *testing.F) {
	registerAll()
	for _, c := range wireCases() {
		if b, err := transport.AppendValue(nil, c.v); err == nil {
			f.Add(b[0], b[1:])
		}
		if viaGob := gobBody(f, c.v); len(viaGob) < 1000 {
			f.Add(c.tag, viaGob)
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
