package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otpdb/internal/metrics"
	"otpdb/internal/testutil"
)

// frameBytes is one whole data frame, as a link would write it.
func frameBytes(t testing.TB, seq, inc uint64, from NodeID, stream string, msg any) []byte {
	t.Helper()
	shared, err := appendShared(nil, from, stream, msg)
	if err != nil {
		t.Fatal(err)
	}
	return appendFrame(nil, seq, inc, shared)
}

func TestFrameRoundTrip(t *testing.T) {
	registerTestMsg()
	var stream bytes.Buffer
	want := []frame{
		{Seq: 1, Inc: 7, Env: Envelope{From: 2, Stream: "s", Msg: tcpTestMsg{K: 1, S: "codec body"}}},
		{Seq: 2, Inc: 7, Env: Envelope{From: 2, Stream: "", Msg: nil}},
		// Larger than the read buffer: the frame reader's second path.
		{Seq: 1<<64 - 1, Inc: 1<<64 - 1, Env: Envelope{From: -1, Stream: "big", Msg: tcpTestMsg{S: string(make([]byte, 3*readBufSize))}}},
		{Seq: 4, Inc: 7, Env: Envelope{From: 0, Stream: "s", Msg: tcpTestMsg{K: 4}}},
	}
	for _, f := range want {
		stream.Write(frameBytes(t, f.Seq, f.Inc, f.Env.From, f.Env.Stream, f.Env.Msg))
	}
	fr := newFrameReader(&stream)
	for i, w := range want {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: got %+v", i, got)
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// opening is a fresh copy of the hello, to append a connection's first
// bytes to.
func opening() []byte { return append([]byte(nil), hello[:]...) }

// rawPeer is a hand-driven TCP connection to (or from) a node.
type rawPeer struct {
	net.Conn
	t *testing.T
}

// closedByPeer waits for the other side to close the connection; what it
// sent before closing is returned.
func (p rawPeer) closedByPeer() []byte {
	p.t.Helper()
	_ = p.SetReadDeadline(time.Now().Add(5 * time.Second))
	b, err := io.ReadAll(p)
	if err != nil {
		p.t.Fatalf("connection not closed by the node: %v", err)
	}
	return b
}

func meteredNode(t *testing.T, addrs map[NodeID]string, id NodeID) (*TCPNode, *metrics.Scope) {
	t.Helper()
	scope := metrics.NewRegistry().Scope()
	n, err := ListenTCP(TCPConfig{ID: id, Addrs: addrs, DialRetry: 10 * time.Millisecond, Metrics: scope})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n, scope
}

func dialRaw(t *testing.T, n *TCPNode) rawPeer {
	t.Helper()
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return rawPeer{c, t}
}

// TestTCPRefusesForeignPeers: a peer that opens with a gob stream (an old
// binary), with another wire version (1 had gob bodies under tag 0), with
// a frame longer than the cap or with a tag nobody registered (0 among
// them) is refused — connection closed, counted, nothing delivered — and
// the node keeps serving everybody else.
func TestTCPRefusesForeignPeers(t *testing.T) {
	registerTestMsg()
	n, scope := meteredNode(t, freeAddrs(t, 1), 0)
	mismatches := scope.Counter("transport_wire_mismatch_total")
	in := n.Subscribe("s")

	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(struct{ Seq, Inc uint64 }{1, 2}); err != nil {
		t.Fatal(err)
	}
	overCap := binary.BigEndian.AppendUint32(opening(), maxFrame+1)
	unknownTag := frameBytes(t, 1, 1, 5, "s", nil)
	unknownTag[len(unknownTag)-1] = 0x7f
	gobTag := frameBytes(t, 1, 1, 5, "s", nil)
	gobTag[len(gobTag)-1] = 0x00
	cases := []struct {
		name  string
		opens []byte
		hello bool // the node answers the hello before it gives up
	}{
		{"gob stream", gobStream.Bytes(), false},
		{"wire version 1", []byte(wireMagic + "\x01"), false},
		{"frame over the cap", overCap, true},
		{"unknown tag", append(opening(), unknownTag...), true},
		{"tag 0", append(opening(), gobTag...), true},
		{"ack where data belongs", append(opening(), 0, 0, 0, framePrefix-4, kindAck,
			0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1), true},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := dialRaw(t, n)
			if _, err := p.Write(c.opens); err != nil {
				t.Fatal(err)
			}
			got := p.closedByPeer()
			if want := hello[:]; c.hello != bytes.Equal(got, want) {
				t.Fatalf("node sent % x before closing (hello expected: %v)", got, c.hello)
			}
			if v := mismatches.Value(); v != uint64(i+1) {
				t.Fatalf("transport_wire_mismatch_total = %d, want %d", v, i+1)
			}
		})
	}

	// A well-formed peer on the next connection is served as if nothing
	// had happened, acks included.
	p := dialRaw(t, n)
	if _, err := p.Write(append(opening(), frameBytes(t, 1, 1, 5, "s", tcpTestMsg{K: 42})...)); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, in); env.From != 5 || env.Msg.(tcpTestMsg).K != 42 {
		t.Fatalf("got %+v", env)
	}
	reply := make([]byte, len(hello)+ackLen)
	_ = p.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(p, reply); err != nil {
		t.Fatal(err)
	}
	if want := append(opening(), kindAck, 0, 0, 0, 0, 0, 0, 0, 1); !bytes.Equal(reply, want) {
		t.Fatalf("node answered % x, want % x", reply, want)
	}
	if v := mismatches.Value(); v != uint64(len(cases)) {
		t.Fatalf("a well-formed peer counted as a mismatch: %d", v)
	}
}

// TestTCPDialerMeetsForeignAcceptor: the acceptor a link dials answers in
// another format. The link counts it, keeps what it has to send, backs
// off and delivers once a node that speaks the format listens there.
func TestTCPDialerMeetsForeignAcceptor(t *testing.T) {
	registerTestMsg()
	addrs := freeAddrs(t, 2)
	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 64) // more than the link can redial while the test looks
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
			_ = c.Close()
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}()
	n0, scope := meteredNode(t, addrs, 0)
	if err := n0.Send(1, "s", tcpTestMsg{K: 7}); err != nil {
		t.Fatal(err)
	}
	<-accepted
	testutil.Eventually(t, 5*time.Second, "mismatch counted", func() bool {
		return scope.Counter("transport_wire_mismatch_total").Value() > 0
	})
	if v := scope.Gauge("transport_unacked_bytes", "peer", "1").Value(); v == 0 {
		t.Fatal("the refused frame left the retransmission buffer")
	}
	_ = ln.Close()
	n1, _ := meteredNode(t, addrs, 1)
	if env := recvOne(t, n1.Subscribe("s")); env.Msg.(tcpTestMsg).K != 7 {
		t.Fatalf("got %+v", env)
	}
	testutil.Eventually(t, 5*time.Second, "ack empties the retransmission buffer", func() bool {
		return scope.Gauge("transport_unacked_bytes", "peer", "1").Value() == 0
	})
	if scope.Counter("transport_bytes_out_total", "peer", "1").Value() == 0 {
		t.Fatal("transport_bytes_out_total stayed 0")
	}
}

// TestTCPKilledConnectionsExactlyOnceFIFO cuts the outbound connection
// again and again while a batch is on its way. What the receiver had not
// acknowledged is written again from the link's byte buffer; the receiver
// must see every message exactly once and in order.
func TestTCPKilledConnectionsExactlyOnceFIFO(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	in := nodes[1].Subscribe("s")
	link := nodes[0].out[1]
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	sent := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(sent)
		for i := 0; i < total; i++ {
			if err := nodes[0].Send(1, "s", tcpTestMsg{K: i, S: "some payload to make frames span writes"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var kills atomic.Int32
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sent:
				return
			case <-tick.C:
				link.mu.Lock()
				if link.conn != nil {
					_ = link.conn.Close()
					kills.Add(1)
				}
				link.mu.Unlock()
			}
		}
	}()
	for i := 0; i < total; i++ {
		if k := recvOne(t, in).Msg.(tcpTestMsg).K; k != i {
			t.Fatalf("message %d arrived as number %d (after %d kills)", k, i, kills.Load())
		}
	}
	wg.Wait()
	if kills.Load() == 0 {
		t.Skip("the batch was through before the first kill")
	}
	t.Logf("%d connections killed", kills.Load())
	select {
	case env := <-in:
		t.Fatalf("extra delivery %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	testutil.Eventually(t, 5*time.Second, "everything acknowledged", func() bool {
		link.mu.Lock()
		defer link.mu.Unlock()
		return link.head == len(link.buf) && link.acked == total
	})
}

// TestTCPSendReportsEncodeError: a message no codec can carry never
// reaches a link.
func TestTCPSendReportsEncodeError(t *testing.T) {
	type unregistered struct{ X int }
	nodes := startMesh(t, 2)
	if err := nodes[0].Send(1, "s", unregistered{1}); err == nil {
		t.Fatal("Send of an unregistered type succeeded")
	}
	if err := nodes[0].Broadcast("s", unregistered{1}); err == nil {
		t.Fatal("Broadcast of an unregistered type succeeded")
	}
	nodes[0].out[1].mu.Lock()
	defer nodes[0].out[1].mu.Unlock()
	if n := len(nodes[0].out[1].buf); n != 0 {
		t.Fatalf("%d bytes queued", n)
	}
}

// fuzzFrames is what the frame fuzzers start from.
func fuzzFrames(t testing.TB) [][]byte {
	registerTestMsg()
	a := frameBytes(t, 1, 9, 0, "s", tcpTestMsg{K: 1, S: "x"})
	b := frameBytes(t, 2, 9, 0, "cons", nil)
	return [][]byte{
		a,
		append(append([]byte{}, a...), b...),
		a[:len(a)-3],
		binary.BigEndian.AppendUint32(nil, maxFrame+1),
		binary.BigEndian.AppendUint32(nil, maxFrame),
		append(binary.BigEndian.AppendUint32(nil, 2*readBufSize), make([]byte, 100)...),
		{0, 0, 0, 0},
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader, as a
// connection would. It must never panic, never hold more memory than the
// bytes it was given (plus one growth step) no matter what a length field
// claims, and end in an error — a violation, which closes the connection,
// or the end of the input.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range fuzzFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fr := newFrameReader(bytes.NewReader(in))
		for {
			fm, err := fr.next()
			if cap(fr.big) > len(in)+growStep {
				t.Fatalf("%d bytes of input made the reader hold %d", len(in), cap(fr.big))
			}
			if err != nil {
				if !errors.Is(err, errWire) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected error kind: %v", err)
				}
				return
			}
			// What decodes encodes, and that encoding is stable: decoding
			// it and encoding again gives the same bytes.
			again := frameBytes(t, fm.Seq, fm.Inc, fm.Env.From, fm.Env.Stream, fm.Env.Msg)
			back, err := decodeFrame(again[4:])
			if err != nil {
				t.Fatalf("decoded frame %+v does not survive re-encoding: %v", fm, err)
			}
			if third := frameBytes(t, back.Seq, back.Inc, back.Env.From, back.Env.Stream, back.Env.Msg); !bytes.Equal(third, again) {
				t.Fatalf("re-encoding is not stable: %+v / %+v", fm, back)
			}
		}
	})
}

// TestLinkBufferModel drives a link's byte buffer through random
// interleavings of what its three users do — senders enqueue, the writer
// takes and finishes writes, the ack reader acknowledges — and checks it
// against a list of frames: whatever the writer is handed is exactly the
// frames not yet written on this connection, whole and in order; a new
// connection starts from the oldest unacknowledged one; and bytes handed
// out do not change until the writer is done with them, however the
// buffer reclaims space meanwhile.
func TestLinkBufferModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := &peerLink{node: &TCPNode{inc: 7}, wake: make(chan struct{}, 1),
			unacked: &metrics.Gauge{}, bytesOut: &metrics.Counter{}}
		var (
			queued, written, acked uint64 // model: sequence numbers
			held, snapshot         []byte // a take the writer has not finished
		)
		frameOf := func(seq uint64) []byte {
			return appendFrame(nil, seq, 7, bytes.Repeat([]byte{byte(seq)}, int(seq*31%200)))
		}
		finish := func() {
			if !bytes.Equal(held, snapshot) {
				t.Fatalf("seed %d: bytes moved under the writer", seed)
			}
			held, snapshot = nil, nil
			l.wrote()
		}
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				queued++
				l.enqueue(frameOf(queued)[framePrefix:])
			case op < 7 && held == nil:
				fresh := rng.Intn(20) == 0
				if fresh {
					written = acked
				}
				chunk, failure := l.take(fresh)
				if failure != nil {
					t.Fatal(failure)
				}
				var want []byte
				for written < queued {
					written++
					want = append(want, frameOf(written)...)
				}
				if !bytes.Equal(chunk, want) {
					t.Fatalf("seed %d step %d: take returned %d bytes, want %d (frames up to %d)", seed, step, len(chunk), len(want), queued)
				}
				held, snapshot = chunk, bytes.Clone(chunk)
			case op < 8 && held != nil:
				finish()
			case op < 10 && acked < written:
				acked += 1 + uint64(rng.Int63n(int64(written-acked)))
				l.ackUpTo(acked)
			}
			if got := l.unacked.Value(); got < 0 || int(got) != len(l.buf)-l.head {
				t.Fatalf("seed %d: gauge %d, buffer holds %d", seed, got, len(l.buf)-l.head)
			}
		}
		if held != nil {
			finish()
		}
		l.take(false)
		l.wrote()
		l.ackUpTo(queued)
		if l.head != len(l.buf) || l.unacked.Value() != 0 {
			t.Fatalf("seed %d: %d bytes left after everything was acknowledged", seed, len(l.buf)-l.head)
		}
		if cap(l.buf) > 4<<20 {
			t.Fatalf("seed %d: buffer grew to %d bytes for a backlog that never exceeded a few hundred frames", seed, cap(l.buf))
		}
	}
}
