package transport

import (
	"sync"
	"testing"
	"time"

	"otpdb/internal/testutil"
)

// Post is how a protocol goroutine that waits on nothing but its stream is
// told of local events. These tests hold both transports to what that
// needs: a posted message shares the stream's queue with the network's
// messages, in order; nothing the network model does to traffic — delay,
// partition, crash — touches it; and it is no traffic itself.

// postTransports runs a test on a node of a memnet hub and on a node of a
// TCP loopback mesh. self is the node under test, peer another one.
func postTransports(t *testing.T, test func(t *testing.T, self, peer Endpoint)) {
	t.Run("mem", func(t *testing.T) {
		h := NewHub(2)
		defer h.Close()
		test(t, h.Endpoint(0), h.Endpoint(1))
	})
	t.Run("tcp", func(t *testing.T) {
		registerTestMsg()
		nodes := startMesh(t, 2)
		test(t, nodes[0], nodes[1])
	})
}

// unregistered is a type no codec knows: what is posted never reaches one.
type unregistered struct{ k int }

func TestPostSharesTheStreamInOrder(t *testing.T) {
	postTransports(t, func(t *testing.T, self, peer Endpoint) {
		in := self.Subscribe("s")
		// One goroutine alternating between Post and a send to itself: the
		// stream shows them in program order.
		for i := 0; i < 50; i++ {
			self.Post("s", unregistered{2 * i})
			if err := self.Send(self.ID(), "s", tcpTestMsg{K: 2*i + 1}); err != nil {
				t.Fatal(err)
			}
		}
		for want := 0; want < 100; want++ {
			env := recvOne(t, in)
			if msgKey(env) != want || env.From != self.ID() || env.Stream != "s" {
				t.Fatalf("position %d: %+v", want, env)
			}
		}
		// A peer sending while the node posts: both arrive complete, each in
		// its own order.
		const n = 200
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := peer.Send(self.ID(), "s", tcpTestMsg{K: i}); err != nil {
					t.Error(err)
				}
			}
		}()
		for i := 0; i < n; i++ {
			self.Post("s", unregistered{i})
		}
		wg.Wait()
		posted, sent := 0, 0
		for posted < n || sent < n {
			switch m := recvOne(t, in).Msg.(type) {
			case unregistered:
				if m.k != posted {
					t.Fatalf("posted %d arrived at position %d", m.k, posted)
				}
				posted++
			case tcpTestMsg:
				if m.K != sent {
					t.Fatalf("sent %d arrived at position %d", m.K, sent)
				}
				sent++
			}
		}
	})
}

func TestPostBufferedBeforeSubscribe(t *testing.T) {
	postTransports(t, func(t *testing.T, self, _ Endpoint) {
		self.Post("late", unregistered{1})
		self.Post("late", unregistered{2})
		in := self.Subscribe("late")
		for want := 1; want <= 2; want++ {
			if env := recvOne(t, in); env.Msg != (unregistered{want}) {
				t.Fatalf("got %+v, want %d", env, want)
			}
		}
	})
}

func TestPostDroppedAfterClose(t *testing.T) {
	postTransports(t, func(t *testing.T, self, _ Endpoint) {
		in := self.Subscribe("s")
		early := "never subscribed"
		if err := self.Close(); err != nil {
			t.Fatal(err)
		}
		self.Post("s", unregistered{1})
		self.Post(early, unregistered{2})
		if env, ok := <-in; ok {
			t.Fatalf("closed endpoint delivered %+v", env)
		}
		// A stream subscribed to after Close is closed too: a goroutine that
		// ranges over it ends instead of waiting for a wake-up that was
		// dropped.
		if env, ok := <-self.Subscribe(early); ok {
			t.Fatalf("closed endpoint delivered %+v", env)
		}
	})
}

// TestPostIgnoresTheNetworkModel: a ten-second delay, a partition from
// everyone and a modelled crash are things that happen to traffic. The
// node still hears itself at once — Stop's wake-up has to arrive at a
// crashed site too — and the hub has not seen a message.
func TestPostIgnoresTheNetworkModel(t *testing.T) {
	h := NewHub(3, WithDelay(10*time.Second))
	defer h.Close()
	calls := clockCalls()
	h.SetLink(0, 0, LinkProfile{Delay: 10 * time.Second, Jitter: time.Second})
	self := h.Endpoint(0)
	in := self.Subscribe("s")
	others := []<-chan Envelope{h.Endpoint(1).Subscribe("s"), h.Endpoint(2).Subscribe("s")}
	post := func(k int) {
		t.Helper()
		start := time.Now()
		self.Post("s", unregistered{k})
		if env := recvOne(t, in); env.Msg != (unregistered{k}) {
			t.Fatalf("got %+v, want %d", env, k)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("post %d took %v on a hub that delays by 10s", k, d)
		}
	}
	post(1)
	h.Partition(0, 1)
	h.Partition(0, 2)
	post(2)
	h.Crash(0)
	post(3)

	if routed := clockCalls() - calls; routed != 0 {
		t.Fatalf("hub routed %d delayed messages, want none", routed)
	}
	for i, ch := range others {
		select {
		case env := <-ch:
			t.Fatalf("node %d received %+v", i+1, env)
		default:
		}
	}

	// Restart replaces the endpoint: the old one is closed, and deaf.
	fresh := h.Restart(0)
	self.Post("s", unregistered{4})
	if env, ok := <-in; ok {
		t.Fatalf("replaced endpoint delivered %+v", env)
	}
	fresh.Post("s", unregistered{5})
	if env := recvOne(t, fresh.Subscribe("s")); env.Msg != (unregistered{5}) {
		t.Fatalf("fresh endpoint got %+v", env)
	}
}

// TestPostIsNotTraffic: nothing is encoded, written or queued for a peer.
func TestPostIsNotTraffic(t *testing.T) {
	registerTestMsg()
	addrs := freeAddrs(t, 2)
	n0, scope := meteredNode(t, addrs, 0)
	n1, _ := meteredNode(t, addrs, 1)
	// One real message first, so that the link is up and its counters
	// would move.
	if err := n0.Send(1, "s", tcpTestMsg{K: 1}); err != nil {
		t.Fatal(err)
	}
	peerIn := n1.Subscribe("s")
	recvOne(t, peerIn)
	out := scope.Counter("transport_bytes_out_total", "peer", "1")
	in := scope.Counter("transport_frames_in_total")
	testutil.Eventually(t, 5*time.Second, "the real message to be counted", func() bool {
		return out.Value() > 0
	})
	bytesBefore, framesBefore := out.Value(), in.Value()

	self := n0.Subscribe("s")
	for i := 0; i < 100; i++ {
		n0.Post("s", unregistered{i})
	}
	for i := 0; i < 100; i++ {
		recvOne(t, self)
	}
	if b, f := out.Value(), in.Value(); b != bytesBefore || f != framesBefore {
		t.Fatalf("100 posts moved bytes out %d → %d, frames in %d → %d", bytesBefore, b, framesBefore, f)
	}
	// Nothing waits for an acknowledgement once the real message's has come.
	testutil.Eventually(t, 5*time.Second, "nothing unacknowledged after posts only", func() bool {
		return scope.Gauge("transport_unacked_bytes", "peer", "1").Value() == 0
	})
	select {
	case env := <-peerIn:
		t.Fatalf("peer received %+v", env)
	default:
	}
}
