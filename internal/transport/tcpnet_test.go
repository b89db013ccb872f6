package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback ports and returns them as a node
// address map. The listeners are closed before returning, so a race with
// another process is possible but vanishingly unlikely in CI.
func freeAddrs(t *testing.T, n int) map[NodeID]string {
	t.Helper()
	addrs := make(map[NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[NodeID(i)] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

func startMesh(t *testing.T, n int) []*TCPNode {
	t.Helper()
	addrs := freeAddrs(t, n)
	nodes := make([]*TCPNode, n)
	for i := 0; i < n; i++ {
		node, err := ListenTCP(TCPConfig{
			ID:        NodeID(i),
			Addrs:     addrs,
			DialRetry: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(func() { _ = node.Close() })
	}
	return nodes
}

type tcpTestMsg struct {
	K int
	S string
}

// registerTestMsg gives tcpTestMsg a codec, under a tag no package owns.
func registerTestMsg() {
	RegisterCodec(0x7e, func(m tcpTestMsg, b []byte) ([]byte, error) {
		return AppendString(binary.AppendVarint(b, int64(m.K)), m.S), nil
	}, func(b []byte) (tcpTestMsg, error) {
		r := NewWireReader(b)
		m := tcpTestMsg{K: int(r.Varint()), S: r.String()}
		return m, r.Done()
	})
}

func TestTCPSendAndReceive(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	in := nodes[1].Subscribe("s")
	if err := nodes[0].Send(1, "s", tcpTestMsg{K: 7, S: "hi"}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, in)
	msg, ok := env.Msg.(tcpTestMsg)
	if !ok || msg.K != 7 || msg.S != "hi" || env.From != 0 {
		t.Fatalf("got %+v", env)
	}
}

func TestTCPBroadcastReachesAllIncludingSelf(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 3)
	chans := make([]<-chan Envelope, 3)
	for i, n := range nodes {
		chans[i] = n.Subscribe("b")
	}
	if err := nodes[2].Broadcast("b", tcpTestMsg{K: 1}); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		env := recvOne(t, ch)
		if env.From != 2 {
			t.Fatalf("node %d got from %v", i, env.From)
		}
	}
}

func TestTCPFIFOOrder(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	in := nodes[1].Subscribe("fifo")
	const total = 200
	for i := 0; i < total; i++ {
		if err := nodes[0].Send(1, "fifo", tcpTestMsg{K: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvOne(t, in)
		msg := env.Msg.(tcpTestMsg)
		if msg.K != i {
			t.Fatalf("message %d = %d, out of order", i, msg.K)
		}
	}
}

func TestTCPSelfSendLoopsBack(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	in := nodes[0].Subscribe("self")
	if err := nodes[0].Send(0, "self", tcpTestMsg{K: 9}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, in)
	if env.Msg.(tcpTestMsg).K != 9 {
		t.Fatalf("got %+v", env)
	}
}

func TestTCPUnknownPeerError(t *testing.T) {
	nodes := startMesh(t, 2)
	if err := nodes[0].Send(9, "s", tcpTestMsg{}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPCloseIsIdempotent(t *testing.T) {
	nodes := startMesh(t, 2)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Send(1, "s", tcpTestMsg{}); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	registerTestMsg()
	addrs := freeAddrs(t, 2)
	n0, err := ListenTCP(TCPConfig{ID: 0, Addrs: addrs, DialRetry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n0.Close() }()

	n1, err := ListenTCP(TCPConfig{ID: 1, Addrs: addrs, DialRetry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	in := n1.Subscribe("s")
	if err := n0.Send(1, "s", tcpTestMsg{K: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, in)
	_ = n1.Close()

	// Messages sent while the peer is down are queued and delivered after
	// it restarts on the same address.
	if err := n0.Send(1, "s", tcpTestMsg{K: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	n1b, err := ListenTCP(TCPConfig{ID: 1, Addrs: addrs, DialRetry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n1b.Close() }()
	in2 := n1b.Subscribe("s")
	// K=1 may be replayed if its ack raced with the old peer's shutdown
	// (the restarted process is a fresh incarnation); K=2 must arrive.
	for i := 0; i < 3; i++ {
		env := recvOne(t, in2)
		if env.Msg.(tcpTestMsg).K == 2 {
			return
		}
	}
	t.Fatal("K=2 never arrived after peer restart")
}

// TestTCPRestartedSenderIsHeard is the incarnation regression test: a
// peer that restarts (fresh process, sequence numbering from 1) must not
// have its new frames silently deduplicated by survivors that remember
// its pre-crash sequence floor — exactly the situation of a killed otpd
// rejoining a live cluster.
func TestTCPRestartedSenderIsHeard(t *testing.T) {
	registerTestMsg()
	addrs := freeAddrs(t, 2)
	n0, err := ListenTCP(TCPConfig{ID: 0, Addrs: addrs, DialRetry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n0.Close() }()
	in := n0.Subscribe("s")

	n1, err := ListenTCP(TCPConfig{ID: 1, Addrs: addrs, DialRetry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Push the survivor's dedup floor for node 1 well past what the
	// restarted incarnation will use.
	const preCrash = 50
	for i := 0; i < preCrash; i++ {
		if err := n1.Send(0, "s", tcpTestMsg{K: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < preCrash; i++ {
		recvOne(t, in)
	}
	_ = n1.Close() // the "kill -9"

	n1b, err := ListenTCP(TCPConfig{ID: 1, Addrs: addrs, DialRetry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n1b.Close() }()
	if err := n1b.Send(0, "s", tcpTestMsg{K: 999}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, in)
	if got := env.Msg.(tcpTestMsg).K; got != 999 {
		t.Fatalf("survivor delivered %d, want the restarted sender's 999", got)
	}
	// And FIFO still holds within the new incarnation.
	for i := 0; i < 10; i++ {
		if err := n1b.Send(0, "s", tcpTestMsg{K: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		env := recvOne(t, in)
		if env.Msg.(tcpTestMsg).K != i {
			t.Fatalf("post-restart message %d = %d, out of order", i, env.Msg.(tcpTestMsg).K)
		}
	}
}

func TestTCPManyStreamsConcurrently(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	const streams = 8
	chans := make([]<-chan Envelope, streams)
	for s := 0; s < streams; s++ {
		chans[s] = nodes[1].Subscribe(fmt.Sprintf("st%d", s))
	}
	for s := 0; s < streams; s++ {
		if err := nodes[0].Send(1, fmt.Sprintf("st%d", s), tcpTestMsg{K: s}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < streams; s++ {
		env := recvOne(t, chans[s])
		if env.Msg.(tcpTestMsg).K != s {
			t.Fatalf("stream %d got %+v", s, env)
		}
	}
}
