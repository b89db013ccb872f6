package transport

import (
	"sync"
	"testing"
	"time"
)

// A node's message to itself never crosses the network, so no transport
// delays it: Send to oneself and the sender's copy of a Broadcast are in
// the node's own mailbox when the call returns, behind what the node put
// there before. These tests hold memnet — whatever delay, jitter or link
// profile its hub was given — and tcpnet to that one rule.

// ownCopyTransports runs a test on node 0 of a memnet hub built with opts,
// whose link 0 → 0 moreover carries a ten-second lossy profile, and on
// node 0 of a TCP loopback mesh, where hub is nil. peer is node 1.
func ownCopyTransports(t *testing.T, opts []MemOption, test func(t *testing.T, self, peer Endpoint, hub *Hub)) {
	t.Run("mem", func(t *testing.T) {
		h := NewHub(2, opts...)
		defer h.Close()
		h.SetLink(0, 0, LinkProfile{Delay: 10 * time.Second, Jitter: time.Second, Loss: 0.5})
		test(t, h.Endpoint(0), h.Endpoint(1), h)
	})
	t.Run("tcp", func(t *testing.T) {
		registerTestMsg()
		nodes := startMesh(t, 2)
		test(t, nodes[0], nodes[1], nil)
	})
}

// clockCalls reports how many wakeups the process's clock has been given.
// The package's tests do not run in parallel, so a difference over a test
// is that test's.
func clockCalls() uint64 {
	modeled.mu.Lock()
	defer modeled.mu.Unlock()
	return modeled.seq
}

// msgKey is the number a test message carries, posted or sent.
func msgKey(env Envelope) int {
	switch m := env.Msg.(type) {
	case unregistered:
		return m.k
	case tcpTestMsg:
		return m.K
	}
	return -1
}

func TestOwnCopyAtOnce(t *testing.T) {
	slow := []MemOption{WithDelay(10 * time.Second), WithJitter(time.Second)}
	ownCopyTransports(t, slow, func(t *testing.T, self, peer Endpoint, hub *Hub) {
		calls := clockCalls()
		in := self.Subscribe("s")
		peerIn := peer.Subscribe("s")
		next := 0
		// arrived takes what the calls so far have put in the mailbox,
		// without waiting: it is all there, in program order.
		arrived := func(upTo int) {
			t.Helper()
			for ; next < upTo; next++ {
				select {
				case env := <-in:
					if msgKey(env) != next || env.From != self.ID() || env.Stream != "s" {
						t.Fatalf("position %d: %+v", next, env)
					}
				default:
					t.Fatalf("message %d was not in the mailbox when the call returned", next)
				}
			}
		}

		const n = 30
		for i := 0; i < n; i++ {
			self.Post("s", unregistered{next})
			if err := self.Send(self.ID(), "s", tcpTestMsg{K: next + 1}); err != nil {
				t.Fatal(err)
			}
			arrived(next + 2)
		}
		if hub != nil {
			// Self-addressed traffic alone queues nothing.
			if routed := clockCalls() - calls; routed != 0 {
				t.Fatalf("hub queued %d messages for self-addressed sends", routed)
			}
		}

		base := next
		for i := 0; i < n; i++ {
			self.Post("s", unregistered{next})
			if err := self.Broadcast("s", tcpTestMsg{K: next + 1}); err != nil {
				t.Fatal(err)
			}
			if err := self.Send(self.ID(), "s", tcpTestMsg{K: next + 2}); err != nil {
				t.Fatal(err)
			}
			arrived(next + 3)
		}
		if hub == nil {
			for i := 0; i < n; i++ {
				if got, want := msgKey(recvOne(t, peerIn)), base+3*i+1; got != want {
					t.Fatalf("peer's broadcast %d carries %d, want %d", i, got, want)
				}
			}
			return
		}
		// The peer's copies, and only they, wait out the hub's ten seconds.
		if routed := clockCalls() - calls; routed != n {
			t.Fatalf("hub queued %d messages, want the peer's %d copies", routed, n)
		}
		select {
		case env := <-peerIn:
			t.Fatalf("peer received %+v through a ten-second link", env)
		default:
		}
	})
}

// TestOwnCopyAgainstDeliveries: the sender's synchronous hand-over and the
// network's deliveries share one mailbox. A peer sending while the node
// sends to itself: both arrive complete, each in its own order, and the
// peer's no earlier than its link allows.
func TestOwnCopyAgainstDeliveries(t *testing.T) {
	const delay = 200 * time.Microsecond
	ownCopyTransports(t, []MemOption{WithDelay(delay)}, func(t *testing.T, self, peer Endpoint, hub *Hub) {
		in := self.Subscribe("s")
		const n = 200
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := peer.Send(self.ID(), "s", tcpTestMsg{K: i, S: "peer"}); err != nil {
					t.Error(err)
				}
			}
		}()
		for i := 0; i < n; i++ {
			var err error
			if i%2 == 0 {
				err = self.Send(self.ID(), "s", tcpTestMsg{K: i})
			} else {
				err = self.Broadcast("s", tcpTestMsg{K: i})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		own, peers := 0, 0
		for own < n || peers < n {
			m := recvOne(t, in).Msg.(tcpTestMsg)
			if m.S == "peer" {
				if hub != nil && peers == 0 && time.Since(start) < delay {
					t.Fatalf("peer's first message arrived %v after the start, through a %v link", time.Since(start), delay)
				}
				if m.K != peers {
					t.Fatalf("peer's message %d arrived at position %d", m.K, peers)
				}
				peers++
			} else {
				if m.K != own {
					t.Fatalf("own message %d arrived at position %d", m.K, own)
				}
				own++
			}
		}
	})
}

// TestOwnCopyNotForTheDead: the rule is about delay, not about failures. A
// closed endpoint refuses to send on either transport and its mailbox takes
// nothing more, and a node the hub has crashed hears nothing from itself
// through route (Post is what reaches it: TestPostIgnoresTheNetworkModel).
func TestOwnCopyNotForTheDead(t *testing.T) {
	ownCopyTransports(t, []MemOption{WithDelay(10 * time.Second)}, func(t *testing.T, self, peer Endpoint, hub *Hub) {
		in := self.Subscribe("s")
		if err := self.Close(); err != nil {
			t.Fatal(err)
		}
		if err := self.Send(self.ID(), "s", tcpTestMsg{K: 1}); err != ErrClosed {
			t.Fatalf("Send to itself after Close = %v, want ErrClosed", err)
		}
		if err := self.Broadcast("s", tcpTestMsg{K: 2}); err != ErrClosed {
			t.Fatalf("Broadcast after Close = %v, want ErrClosed", err)
		}
		if hub != nil {
			hub.Inject(self.ID(), self.ID(), "s", tcpTestMsg{K: 3})
		}
		if env, ok := <-in; ok {
			t.Fatalf("closed endpoint delivered %+v", env)
		}
		if hub == nil {
			return
		}
		peerIn := peer.Subscribe("s")
		hub.Crash(peer.ID())
		_ = peer.Send(peer.ID(), "s", tcpTestMsg{K: 4})
		_ = peer.Broadcast("s", tcpTestMsg{K: 5})
		hub.Inject(peer.ID(), peer.ID(), "s", tcpTestMsg{K: 6})
		select {
		case env := <-peerIn:
			t.Fatalf("crashed node heard %+v from itself", env)
		default:
		}
	})
}
