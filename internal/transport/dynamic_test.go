package transport

import (
	"testing"
	"time"
)

// TestTCPAddPeerJoinsMesh: a node attached after startup exchanges
// traffic with the existing mesh once both sides add each other.
func TestTCPAddPeerJoinsMesh(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	addrs := freeAddrs(t, 1)
	joiner, err := ListenTCP(TCPConfig{
		ID:        NodeID(2),
		Addrs:     map[NodeID]string{2: addrs[0]},
		DialRetry: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = joiner.Close() })

	full := map[NodeID]string{0: nodes[0].Addr(), 1: nodes[1].Addr(), 2: joiner.Addr()}
	for _, n := range nodes {
		n.SetPeers(full)
	}
	joiner.SetPeers(full)
	if got := nodes[0].N(); got != 3 {
		t.Fatalf("N after add = %d, want 3", got)
	}

	in := joiner.Subscribe("s")
	if err := nodes[0].Send(2, "s", tcpTestMsg{K: 42}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, in)
	if msg, ok := env.Msg.(tcpTestMsg); !ok || msg.K != 42 {
		t.Fatalf("joiner got %+v", env)
	}

	back := nodes[1].Subscribe("s")
	if err := joiner.Broadcast("s", tcpTestMsg{K: 7}); err != nil {
		t.Fatal(err)
	}
	env = recvOne(t, back)
	if env.From != 2 {
		t.Fatalf("broadcast from joiner arrived from %v", env.From)
	}
}

// TestTCPRemovePeerPromptEvenWhileDialingDeadAddress: tearing down the
// link to a dead peer must not hang on the dial retry loop.
func TestTCPRemovePeerPromptEvenWhileDialingDeadAddress(t *testing.T) {
	registerTestMsg()
	addrs := freeAddrs(t, 2) // addr 1 is never listened on
	node, err := ListenTCP(TCPConfig{ID: 0, Addrs: addrs, DialRetry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	// Queue traffic so the link is actively dialing the dead address.
	_ = node.Send(1, "s", tcpTestMsg{K: 1})
	done := make(chan struct{})
	go func() {
		node.RemovePeer(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RemovePeer hung on a dead peer's dial loop")
	}
	if node.N() != 1 {
		t.Fatalf("N after remove = %d, want 1", node.N())
	}
	if err := node.Send(1, "s", tcpTestMsg{K: 2}); err == nil {
		t.Fatal("send to removed peer succeeded")
	}
}

// TestTCPReplacePeerAddress: re-addressing an existing peer dials the
// new address and traffic flows to the new process.
func TestTCPReplacePeerAddress(t *testing.T) {
	registerTestMsg()
	nodes := startMesh(t, 2)
	addrs := freeAddrs(t, 1)
	// The replacement process for id 1 at a new address.
	repl, err := ListenTCP(TCPConfig{
		ID:        NodeID(1),
		Addrs:     map[NodeID]string{0: nodes[0].Addr(), 1: addrs[0]},
		DialRetry: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	_ = nodes[1].Close() // old incarnation dies

	nodes[0].AddPeer(1, repl.Addr())
	in := repl.Subscribe("s")
	if err := nodes[0].Send(1, "s", tcpTestMsg{K: 9}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, in)
	if msg, ok := env.Msg.(tcpTestMsg); !ok || msg.K != 9 {
		t.Fatalf("replacement got %+v", env)
	}
}

// TestHubAddGrowsGroup: a hub node added at runtime is reachable and
// counted, and broadcasts from old nodes reach it.
func TestHubAddGrowsGroup(t *testing.T) {
	h := NewHub(2)
	defer h.Close()
	ep := h.Add()
	if ep.ID() != 2 {
		t.Fatalf("new node id = %v, want 2", ep.ID())
	}
	if h.Endpoint(0).N() != 3 || ep.N() != 3 {
		t.Fatal("N did not grow to 3")
	}
	in := ep.Subscribe("s")
	if err := h.Endpoint(0).Broadcast("s", "hello"); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, in)
	if env.From != 0 || env.Msg != "hello" {
		t.Fatalf("added node got %+v", env)
	}
	// And the new node can crash/restart like any other.
	h.Crash(2)
	if err := h.Endpoint(0).Send(2, "s", "dropped"); err != nil {
		t.Fatal(err)
	}
	fresh := h.Restart(2)
	in2 := fresh.Subscribe("s")
	if err := h.Endpoint(1).Send(2, "s", "alive"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, in2); env.Msg != "alive" {
		t.Fatalf("restarted added node got %+v", env)
	}
}
