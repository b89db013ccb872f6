package abcast

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otpdb/internal/queue"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// bodyReqCounter counts the BodyReq broadcasts of the site behind it.
type bodyReqCounter struct {
	transport.Endpoint
	bodyReqs atomic.Int64
}

func (e *bodyReqCounter) Broadcast(stream string, msg any) error {
	if _, ok := msg.(BodyReq); ok {
		e.bodyReqs.Add(1)
	}
	return e.Endpoint.Broadcast(stream, msg)
}

// laggingEndpoint holds back everything the network brings on the data
// stream until released, while the consensus stream and what the site
// posts to itself run at full speed, and counts the BodyReq broadcasts of
// the site behind it.
type laggingEndpoint struct {
	bodyReqCounter
	release chan struct{} // closed to let the data stream through
	done    chan struct{} // closed when the test ends
	data    chan transport.Envelope

	once  sync.Once
	posts *queue.Q[transport.Envelope] // Post on the data stream; see local
}

// local returns the queue of what the site has posted to its own data
// stream.
func (e *laggingEndpoint) local() *queue.Q[transport.Envelope] {
	e.once.Do(func() { e.posts = queue.New[transport.Envelope]() })
	return e.posts
}

func (e *laggingEndpoint) Post(stream string, msg any) {
	if stream != StreamData {
		e.Endpoint.Post(stream, msg)
		return
	}
	e.local().Push(transport.Envelope{From: e.ID(), Stream: stream, Msg: msg})
}

func (e *laggingEndpoint) Subscribe(stream string) <-chan transport.Envelope {
	if stream != StreamData {
		return e.Endpoint.Subscribe(stream)
	}
	return e.data
}

func (e *laggingEndpoint) forward() {
	defer e.local().Close()
	posts := e.local().Chan()
	release := e.release
	var in <-chan transport.Envelope // the network's data: nil until released
	for {
		var env transport.Envelope
		ok := true
		select {
		case <-release:
			in, release = e.Endpoint.Subscribe(StreamData), nil
			continue
		case env = <-posts:
		case env, ok = <-in:
		case <-e.done:
			return
		}
		if !ok {
			in = nil // the hub is closed; the site still hears itself
			continue
		}
		select {
		case e.data <- env:
		case <-e.done:
			return
		}
	}
}

// startLaggingEndpoint wraps ep and forwards for it until the test ends.
// Call it before starting the engines: the forwarder must outlive them.
func startLaggingEndpoint(t *testing.T, ep transport.Endpoint) *laggingEndpoint {
	lag := &laggingEndpoint{
		bodyReqCounter: bodyReqCounter{Endpoint: ep},
		release:        make(chan struct{}),
		done:           make(chan struct{}),
		data:           make(chan transport.Envelope),
	}
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		lag.forward()
	}()
	t.Cleanup(func() { // after the engines have stopped reading
		close(lag.done)
		<-forwarded
	})
	return lag
}

// A site whose data stream runs behind its decision stream must not ask
// for the missing bodies once per stage: every peer answers every request
// with every body, on the stream that is already behind. The number of
// requests is bounded by the time the bodies were missing.
func TestBodyReqBoundedByTimeNotStages(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	lag := startLaggingEndpoint(t, h.Endpoint(2))
	group := startOptimisticGroupOn(t, []transport.Endpoint{h.Endpoint(0), h.Endpoint(1), lag})

	// One message per stage: the next goes out when site 0 has
	// TO-delivered the previous one.
	const msgs = 40
	start := time.Now()
	for i := 0; i < msgs; i++ {
		if _, err := group[0].Broadcast(i); err != nil {
			t.Fatal(err)
		}
		siteEvents(t, group[0], 1, 5*time.Second)
	}
	// Site 2 has the decisions — it sees every proposal and ack — but
	// not one body.
	testutil.Eventually(t, 5*time.Second, "site 2 to process every stage", func() bool {
		return group[2].Stats().Stages >= msgs
	})
	elapsed := time.Since(start)
	reqs := lag.bodyReqs.Load()
	if limit := int64(elapsed/decideReqInterval) + 1; reqs < 1 || reqs > limit {
		t.Fatalf("%d BodyReq broadcasts for %d stages in %v, want 1..%d", reqs, msgs, elapsed, limit)
	}

	close(lag.release)
	events := siteEvents(t, group[2], msgs, 5*time.Second)
	checkLocalOrder(t, events)
	for i, id := range toOrder(events) {
		if want := (MsgID{Origin: 0, Seq: uint64(i + 1)}); id != want {
			t.Fatalf("site 2 TO position %d: %v, want %v", i, id, want)
		}
	}
}

// bodyLossEndpoint loses every body its site broadcasts on the way to
// one peer, and nothing else.
type bodyLossEndpoint struct {
	transport.Endpoint
	deaf transport.NodeID
}

func (e *bodyLossEndpoint) Broadcast(stream string, msg any) error {
	if _, ok := msg.(DataMsg); !ok {
		return e.Endpoint.Broadcast(stream, msg)
	}
	for to := 0; to < e.N(); to++ {
		if transport.NodeID(to) != e.deaf {
			if err := e.Send(transport.NodeID(to), stream, msg); err != nil {
				return err
			}
		}
	}
	return nil
}

// The retry is driven by time, not by further stages: a body whose
// request the rate limit held back is asked for again although nothing
// else happens at the site.
func TestBodyReqRetriedWithoutFurtherStages(t *testing.T) {
	h := transport.NewHub(3)
	defer h.Close()
	group := startOptimisticGroupOn(t, []transport.Endpoint{
		&bodyLossEndpoint{Endpoint: h.Endpoint(0), deaf: 2}, h.Endpoint(1), h.Endpoint(2)})
	// Two stages inside one rate-limit interval: the first one's request
	// goes out at once, the second one's has to wait for the timer.
	const msgs = 2
	for i := 0; i < msgs; i++ {
		if _, err := group[0].Broadcast(i); err != nil {
			t.Fatal(err)
		}
		siteEvents(t, group[0], 1, 5*time.Second)
	}
	events := siteEvents(t, group[2], msgs, 5*time.Second)
	checkLocalOrder(t, events)
}

// The coordinator hears its own broadcast when it sends it and proposes it
// at once, so body, proposal and the coordinator's ack leave together and
// race to every follower. Over a link whose jitter exceeds what the rest of
// the group needs for a round trip, the body is last about every third
// time: the follower holds a decision — proposal, the coordinator's ack and
// the other follower's — naming a message it has not seen. TO-release waits
// for the body (Local Order), and the follower asks for what is on its way
// at most once per decideReqInterval, however many stages it happens in.
func TestDecisionOvertakesCoordinatorsBody(t *testing.T) {
	h := transport.NewHub(3, transport.WithDelay(100*time.Microsecond), transport.WithSeed(5))
	defer h.Close()
	h.SetLink(0, 1, transport.LinkProfile{Delay: 100 * time.Microsecond, Jitter: 2 * time.Millisecond})
	follower := &bodyReqCounter{Endpoint: h.Endpoint(1)}
	group := startOptimisticGroupOn(t, []transport.Endpoint{h.Endpoint(0), follower, h.Endpoint(2)})

	const msgs = 40
	start := time.Now()
	for i := 0; i < msgs; i++ {
		if _, err := group[0].Broadcast(i); err != nil {
			t.Fatal(err)
		}
		siteEvents(t, group[0], 1, 5*time.Second)
	}
	events := siteEvents(t, group[1], msgs, 5*time.Second)
	checkLocalOrder(t, events)
	for i, id := range toOrder(events) {
		if want := (MsgID{Origin: 0, Seq: uint64(i + 1)}); id != want {
			t.Fatalf("site 1 TO position %d: %v, want %v", i, id, want)
		}
	}
	elapsed := time.Since(start)
	reqs := follower.bodyReqs.Load()
	if limit := int64(elapsed/decideReqInterval) + 1; reqs < 1 || reqs > limit {
		t.Fatalf("%d BodyReq broadcasts for %d stages in %v, want 1..%d (0: no decision ever overtook its body)", reqs, msgs, elapsed, limit)
	}
}
