package fd

import (
	"sync"
	"testing"
	"time"

	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

func startDetectors(t *testing.T, h *transport.Hub, n int, cfg Config) []*Detector {
	t.Helper()
	ds := make([]*Detector, n)
	for i := 0; i < n; i++ {
		ds[i] = New(h.Endpoint(transport.NodeID(i)), cfg)
		ds[i].Start()
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Stop()
		}
	})
	return ds
}

func eventually(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	testutil.Eventually(t, timeout, msg, cond)
}

// TestNoFalseSuspicionWhenAllAlive asserts the negative over many
// heartbeat intervals. The suspicion timeout is deliberately enormous
// relative to the interval, so the assertion cannot flake on scheduling
// pauses: a false suspicion would require every heartbeat of a live node
// to be delayed by seconds, not a busy CI runner preempting a tick.
func TestNoFalseSuspicionWhenAllAlive(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	ds := startDetectors(t, h, 3, Config{Interval: 5 * time.Millisecond, timeout: time.Minute})
	testutil.Consistently(t, 250*time.Millisecond, func() {
		for i, d := range ds {
			for j := 0; j < 3; j++ {
				if d.Suspected(transport.NodeID(j)) {
					t.Fatalf("detector %d falsely suspects %d", i, j)
				}
			}
		}
	})
}

func TestCrashedNodeEventuallySuspected(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	ds := startDetectors(t, h, 3, Config{Interval: 10 * time.Millisecond})
	h.Crash(2)
	eventually(t, 2*time.Second, func() bool {
		return ds[0].Suspected(2) && ds[1].Suspected(2)
	}, "crashed node 2 never suspected")
	if ds[0].Suspected(1) {
		t.Fatal("live node 1 suspected")
	}
}

func TestPartitionedNodeSuspectedThenRehabilitated(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	ds := startDetectors(t, h, 2, Config{Interval: 10 * time.Millisecond})
	h.Partition(0, 1)
	eventually(t, 2*time.Second, func() bool { return ds[0].Suspected(1) },
		"partitioned node never suspected")
	h.Heal(0, 1)
	eventually(t, 2*time.Second, func() bool { return !ds[0].Suspected(1) },
		"healed node never rehabilitated")
}

func TestOnChangeCallbacks(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	d := New(h.Endpoint(0), Config{Interval: 10 * time.Millisecond})
	var mu sync.Mutex
	events := make(map[bool]int)
	d.OnChange(func(n transport.NodeID, suspected bool) {
		mu.Lock()
		events[suspected]++
		mu.Unlock()
	})
	d.Start()
	defer d.Stop()
	d2 := New(h.Endpoint(1), Config{Interval: 10 * time.Millisecond})
	d2.Start()
	time.Sleep(50 * time.Millisecond)
	h.Crash(1)
	d2.Stop()
	eventually(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return events[true] >= 1
	}, "suspicion callback never fired")
}

func TestSuspectedSetSnapshot(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	ds := startDetectors(t, h, 3, Config{Interval: 10 * time.Millisecond})
	h.Crash(1)
	h.Crash(2)
	eventually(t, 2*time.Second, func() bool {
		return len(ds[0].SuspectedSet()) == 2
	}, "suspected set never reached 2")
}

// TestSetMembersDropsGhostAndClearsSuspicion: an epoch change removes a
// suspected ghost from the monitored set and gives every retained member
// a fresh lease — stale suspicion does not linger across epochs.
func TestSetMembersDropsGhostAndClearsSuspicion(t *testing.T) {
	h := transport.NewHub(4)
	defer h.Close()
	ds := startDetectors(t, h, 4, Config{Interval: 10 * time.Millisecond})
	h.Crash(2)
	h.Crash(3)
	eventually(t, 10*time.Second, func() bool {
		return ds[0].Suspected(2) && ds[0].Suspected(3)
	}, "crashed nodes never suspected")

	// Epoch change: node 3 is removed, node 2 stays (e.g. replaced at a
	// new address and about to come back).
	ds[0].SetMembers([]transport.NodeID{0, 1, 2})
	if ds[0].Suspected(3) {
		t.Fatal("removed ghost still suspected")
	}
	if len(ds[0].SuspectedSet()) != 0 {
		t.Fatalf("suspected set after epoch change = %v", ds[0].SuspectedSet())
	}
	if ds[0].Suspected(2) {
		t.Fatal("retained member's stale suspicion survived the epoch change")
	}
	// A retained member that is genuinely dead is re-suspected after a
	// fresh timeout.
	eventually(t, 10*time.Second, func() bool { return ds[0].Suspected(2) },
		"dead retained member never re-suspected after epoch change")
}

// TestStaleIncarnationHeartbeatIgnored: heartbeats from an older
// incarnation (a reconnecting transport draining a dead process's
// backlog) must not refresh the live identity's lease. Node 1 here is
// a raw endpoint scripting heartbeats: one from a "new" incarnation,
// then a stream of older-incarnation ones, which before the fix would
// have kept the ghost unsuspected forever.
func TestStaleIncarnationHeartbeatIgnored(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	d := New(h.Endpoint(0), Config{Interval: 10 * time.Millisecond})
	d.Start()
	defer d.Stop()
	peer := h.Endpoint(1)
	if err := peer.Send(0, Stream, Heartbeat{Inc: 100}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 10*time.Second, "suspicion despite stale-incarnation chatter", func() bool {
		// Chatter from the dead incarnation, every beat.
		if err := peer.Send(0, Stream, Heartbeat{Inc: 99}); err != nil {
			t.Fatal(err)
		}
		return d.Suspected(1)
	})
	// A newer incarnation rehabilitates the identity immediately.
	if err := peer.Send(0, Stream, Heartbeat{Inc: 101}); err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, func() bool { return !d.Suspected(1) },
		"new incarnation never rehabilitated")
}

// TestNonMemberHeartbeatIgnored: a removed site's process may keep
// heartbeating until the operator stops it; those heartbeats must not
// re-admit it to the monitored set (it would be suspected as a ghost
// forever once the process dies).
func TestNonMemberHeartbeatIgnored(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	d := New(h.Endpoint(0), Config{Interval: 10 * time.Millisecond})
	d.Start()
	defer d.Stop()
	d.SetMembers([]transport.NodeID{0, 1}) // node 2 voted out
	peer2 := h.Endpoint(2)
	h.Crash(1)
	testutil.Eventually(t, 10*time.Second, "member 1 to be suspected", func() bool {
		// The removed node keeps chattering the whole time.
		if err := peer2.Send(0, Stream, Heartbeat{Inc: 7}); err != nil {
			t.Fatal(err)
		}
		return d.Suspected(1)
	})
	if d.Suspected(2) {
		t.Fatal("non-member suspected")
	}
	if got := d.SuspectedSet(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("suspected set = %v, want [1] only", got)
	}
}

// TestSetMembersResetsIncarnationFloor: a replacement machine's clock
// may be behind its dead predecessor's, so its incarnation is lower.
// The epoch change must reset the floor, or every heartbeat the
// replacement sends would be dropped and it would be suspected forever.
func TestSetMembersResetsIncarnationFloor(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	d := New(h.Endpoint(0), Config{Interval: 10 * time.Millisecond})
	d.Start()
	defer d.Stop()
	peer := h.Endpoint(1)
	// The old incarnation (fast clock) heartbeats once, then dies.
	if err := peer.Send(0, Stream, Heartbeat{Inc: 1000}); err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, func() bool { return d.Suspected(1) },
		"dead old incarnation never suspected")
	// MEMBER REPLACE commits: epoch change, same id retained.
	d.SetMembers([]transport.NodeID{0, 1})
	if d.Suspected(1) {
		t.Fatal("suspicion survived the epoch change")
	}
	// The replacement (slower clock: lower incarnation) heartbeats; it
	// must keep the lease alive, never re-suspected.
	testutil.Consistently(t, 300*time.Millisecond, func() {
		if err := peer.Send(0, Stream, Heartbeat{Inc: 500}); err != nil {
			t.Fatal(err)
		}
		if d.Suspected(1) {
			t.Fatal("replacement with lower incarnation suspected despite heartbeating")
		}
	})
}

func TestStaticSuspector(t *testing.T) {
	s := StaticSuspector{1: true}
	if !s.Suspected(1) || s.Suspected(0) {
		t.Fatal("static suspector wrong")
	}
}

// TestSelfNeverSuspected is event-driven: once the crashed peer has been
// suspected, the sweep has demonstrably run past the timeout, so the
// absence of self-suspicion is a real property, not a race window.
func TestSelfNeverSuspected(t *testing.T) {
	h := transport.NewHub(2)
	defer h.Close()
	ds := startDetectors(t, h, 2, Config{Interval: 10 * time.Millisecond})
	h.Crash(1) // node 0 still must not suspect itself
	eventually(t, 10*time.Second, func() bool { return ds[0].Suspected(1) },
		"crashed peer never suspected")
	if ds[0].Suspected(0) {
		t.Fatal("node suspects itself")
	}
}
