package db

import (
	"sync"
	"testing"

	"otpdb/internal/abcast"
	"otpdb/internal/queue"
	"otpdb/internal/transport"
)

// Scripted is an abcast.Broadcaster test double whose delivery schedule is
// fully under the caller's control. It backs the replica tests in which
// the tentative/definitive interleaving must be exact; the db_test files
// see it too, being compiled with this package's tests.
type Scripted struct {
	mu      sync.Mutex
	nextSeq uint64
	closed  bool
	// onBroadcast, when set, is invoked for every Broadcast call instead
	// of the default immediate Opt+TO delivery. The callback typically
	// records the ID and injects deliveries later.
	onBroadcast func(id abcast.MsgID, payload any)
	out         *queue.Q[abcast.Event]
	origin      transport.NodeID
}

var _ abcast.Broadcaster = (*Scripted)(nil)

// NewScripted creates a scripted broadcaster. Without a handler, every
// Broadcast is Opt- and then TO-delivered immediately, in broadcast order.
func NewScripted(origin transport.NodeID, onBroadcast func(id abcast.MsgID, payload any)) *Scripted {
	return &Scripted{
		onBroadcast: onBroadcast,
		out:         queue.New[abcast.Event](),
		origin:      origin,
	}
}

// Start implements abcast.Broadcaster.
func (s *Scripted) Start() error { return nil }

// Stop implements abcast.Broadcaster.
func (s *Scripted) Stop() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.out.Close()
	return nil
}

// Broadcast implements abcast.Broadcaster.
func (s *Scripted) Broadcast(payload any) (abcast.MsgID, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return abcast.MsgID{}, transport.ErrClosed
	}
	s.nextSeq++
	id := abcast.MsgID{Origin: s.origin, Seq: s.nextSeq}
	handler := s.onBroadcast
	s.mu.Unlock()
	if handler != nil {
		handler(id, payload)
		return id, nil
	}
	s.InjectOpt(id, payload)
	s.InjectTO(id)
	return id, nil
}

// Deliveries implements abcast.Broadcaster.
func (s *Scripted) Deliveries() <-chan abcast.Event { return s.out.Chan() }

// InjectOpt emits an Opt event.
func (s *Scripted) InjectOpt(id abcast.MsgID, payload any) {
	s.out.Push(abcast.Event{Kind: abcast.Opt, ID: id, Payload: payload})
}

// InjectTO emits a TO event.
func (s *Scripted) InjectTO(id abcast.MsgID) {
	s.out.Push(abcast.Event{Kind: abcast.TO, ID: id})
}

func TestScriptedDefaultImmediateDelivery(t *testing.T) {
	s := NewScripted(0, nil)
	defer func() { _ = s.Stop() }()
	id, err := s.Broadcast("p")
	if err != nil {
		t.Fatal(err)
	}
	ev1 := <-s.Deliveries()
	ev2 := <-s.Deliveries()
	if ev1.Kind != abcast.Opt || ev1.ID != id || ev1.Payload != "p" {
		t.Fatalf("first event %+v", ev1)
	}
	if ev2.Kind != abcast.TO || ev2.ID != id {
		t.Fatalf("second event %+v", ev2)
	}
}

func TestScriptedCustomSchedule(t *testing.T) {
	var captured []abcast.MsgID
	var s *Scripted
	s = NewScripted(1, func(id abcast.MsgID, payload any) {
		captured = append(captured, id)
	})
	defer func() { _ = s.Stop() }()
	idA, _ := s.Broadcast("a")
	idB, _ := s.Broadcast("b")
	// Opt in broadcast order, TO reversed.
	s.InjectOpt(idA, "a")
	s.InjectOpt(idB, "b")
	s.InjectTO(idB)
	s.InjectTO(idA)
	var kinds []abcast.EventKind
	var ids []abcast.MsgID
	for i := 0; i < 4; i++ {
		ev := <-s.Deliveries()
		kinds = append(kinds, ev.Kind)
		ids = append(ids, ev.ID)
	}
	want := []abcast.MsgID{idA, idB, idB, idA}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, ids[i], want[i])
		}
	}
	if kinds[0] != abcast.Opt || kinds[1] != abcast.Opt || kinds[2] != abcast.TO || kinds[3] != abcast.TO {
		t.Fatalf("kinds = %v", kinds)
	}
	if len(captured) != 2 {
		t.Fatalf("OnBroadcast captured %d ids", len(captured))
	}
}
