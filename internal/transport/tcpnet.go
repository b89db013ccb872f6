package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"otpdb/internal/metrics"
)

// TCPConfig configures one node of a TCP mesh.
type TCPConfig struct {
	// ID is this node's identifier.
	ID NodeID
	// Addrs maps every node (including this one) to its listen address.
	Addrs map[NodeID]string
	// DialRetry is the back-off between reconnection attempts.
	// Defaults to 250 ms.
	DialRetry time.Duration
	// Incarnation, when non-zero, overrides the clock-derived process
	// incarnation stamped on data frames. Durable deployments pass a
	// PersistentIncarnation so a clock stepping backwards across a
	// restart cannot mint a stale one.
	Incarnation uint64
	// Metrics, when non-nil, registers transport telemetry (inbound
	// frames, coalesce batch sizes, dial retries, bytes written and
	// bytes awaiting acknowledgement per peer) under the scope's labels.
	Metrics *metrics.Scope
	// Trace, when non-nil, receives a net-recv span for every fresh
	// inbound data frame whose payload carries a trace ID (see
	// TraceCarrier) — the network-hop edges of a distributed trace.
	Trace *metrics.TraceRing
}

// TCPNode is a transport endpoint over a full TCP mesh, speaking the
// frame format of wire.go. A message is encoded once, when it is sent;
// each link keeps the encoded frames until the peer acknowledges them
// and rewrites those bytes on every new connection, giving reliable FIFO
// delivery to every peer that stays up or restarts on the same address
// (crash-stop peers simply never acknowledge). Duplicate deliveries are
// filtered by per-sender sequence numbers.
//
// The peer set is dynamic: AddPeer/RemovePeer/SetPeers reconfigure the
// mesh at runtime (group membership changes), creating or tearing down
// per-peer links without touching the others.
type TCPNode struct {
	cfg  TCPConfig
	ln   net.Listener
	inc  uint64 // this node's incarnation, stamped on every data frame
	box  *mailbox
	stop chan struct{}
	wg   sync.WaitGroup

	// Telemetry (inert unregistered instruments without cfg.Metrics).
	framesIn     *metrics.Counter
	dupFrames    *metrics.Counter
	dialRetries  *metrics.Counter
	wireMismatch *metrics.Counter
	batchSizes   *metrics.Histogram

	mu     sync.Mutex
	addrs  map[NodeID]string // current peer map, including self
	out    map[NodeID]*peerLink
	links  []*peerLink // out's values; replaced, never modified, when out changes
	closed bool

	rmu     sync.Mutex        // inbound: dedup state and the order of delivery
	lastSeq map[NodeID]uint64 // highest data seq delivered per sender incarnation
	lastInc map[NodeID]uint64 // newest incarnation seen per sender
}

var _ Endpoint = (*TCPNode)(nil)

// ListenTCP starts a node listening on its configured address and begins
// connecting to its peers in the background.
func ListenTCP(cfg TCPConfig) (*TCPNode, error) {
	addr, ok := cfg.Addrs[cfg.ID]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address configured for %v", cfg.ID)
	}
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 250 * time.Millisecond
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		cfg:          cfg,
		ln:           ln,
		box:          newMailbox(),
		addrs:        make(map[NodeID]string, len(cfg.Addrs)),
		out:          make(map[NodeID]*peerLink),
		inc:          cfg.Incarnation,
		stop:         make(chan struct{}),
		lastSeq:      make(map[NodeID]uint64),
		lastInc:      make(map[NodeID]uint64),
		framesIn:     cfg.Metrics.Counter("transport_frames_in_total"),
		dupFrames:    cfg.Metrics.Counter("transport_dup_frames_total"),
		dialRetries:  cfg.Metrics.Counter("transport_dial_retry_total"),
		wireMismatch: cfg.Metrics.Counter("transport_wire_mismatch_total"),
		batchSizes:   cfg.Metrics.SizeHistogram("transport_coalesce_batch"),
	}
	if n.inc == 0 {
		n.inc = uint64(time.Now().UnixNano())
	}
	for id, peerAddr := range cfg.Addrs {
		n.addrs[id] = peerAddr
		if id == cfg.ID {
			continue
		}
		n.out[id] = newPeerLink(n, id, peerAddr)
	}
	n.relink()
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// relink republishes the link list after n.out changed. Caller holds
// n.mu (or, in ListenTCP, the only reference).
func (n *TCPNode) relink() {
	links := make([]*peerLink, 0, len(n.out))
	for _, link := range n.out {
		links = append(links, link)
	}
	n.links = links
}

// AddPeer attaches (or re-addresses) a peer at runtime. An existing link
// to the same address is left untouched; a changed address tears the old
// link down — its unacknowledged frames are dropped, matching the
// membership-change semantics (the old incarnation is gone for good) —
// and dials the new one.
func (n *TCPNode) AddPeer(id NodeID, addr string) {
	if id == n.cfg.ID {
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	old := n.out[id]
	if old != nil && n.addrs[id] == addr {
		n.mu.Unlock()
		return
	}
	n.addrs[id] = addr
	n.out[id] = newPeerLink(n, id, addr)
	n.relink()
	n.mu.Unlock()
	if old != nil {
		old.close()
	}
}

// RemovePeer detaches a peer: its link is torn down (promptly, even
// mid-dial against a dead address) and queued frames are dropped.
// Inbound dedup state is retained so a stale straggler from the removed
// peer cannot be mistaken for fresh traffic.
func (n *TCPNode) RemovePeer(id NodeID) {
	n.mu.Lock()
	link := n.out[id]
	delete(n.out, id)
	delete(n.addrs, id)
	n.relink()
	n.mu.Unlock()
	if link != nil {
		link.close()
	}
}

// SetPeers reconciles the full peer map (including this node's own
// entry) against the current mesh: missing peers are added, re-addressed
// peers are redialed, absent peers are removed. This is the transport
// half of applying a membership configuration.
func (n *TCPNode) SetPeers(addrs map[NodeID]string) {
	n.mu.Lock()
	var gone []*peerLink
	for id, link := range n.out {
		if _, keep := addrs[id]; !keep {
			gone = append(gone, link)
			delete(n.out, id)
			delete(n.addrs, id)
		}
	}
	n.relink()
	n.mu.Unlock()
	for _, link := range gone {
		link.close()
	}
	for id, addr := range addrs {
		n.AddPeer(id, addr)
	}
	n.mu.Lock()
	if _, ok := addrs[n.cfg.ID]; ok {
		n.addrs[n.cfg.ID] = addrs[n.cfg.ID]
	}
	n.mu.Unlock()
}

// Addr returns the node's bound listen address (useful with ":0").
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// ID implements Endpoint.
func (n *TCPNode) ID() NodeID { return n.cfg.ID }

// N implements Endpoint: the current group size (self included).
func (n *TCPNode) N() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.addrs)
}

// Send implements Endpoint.
func (n *TCPNode) Send(to NodeID, stream string, msg any) error {
	n.mu.Lock()
	closed, link := n.closed, n.out[to]
	n.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case to == n.cfg.ID:
		n.box.enqueue(Envelope{From: to, Stream: stream, Msg: msg})
		return nil
	case link == nil:
		return fmt.Errorf("tcpnet: unknown peer %v", to)
	}
	return n.transmit(stream, msg, link)
}

// Broadcast implements Endpoint. The recipient set is the peer map at
// call time; a membership change mid-broadcast may or may not include
// the changing peer, exactly as a racing unicast would.
func (n *TCPNode) Broadcast(stream string, msg any) error {
	n.mu.Lock()
	closed, links := n.closed, n.links
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	n.box.enqueue(Envelope{From: n.cfg.ID, Stream: stream, Msg: msg})
	return n.transmit(stream, msg, links...)
}

// transmit encodes msg once and queues the bytes on every link.
func (n *TCPNode) transmit(stream string, msg any, links ...*peerLink) error {
	buf := framePool.Get().(*[]byte)
	shared, err := appendShared((*buf)[:0], n.cfg.ID, stream, msg)
	if err == nil {
		for _, link := range links {
			link.enqueue(shared)
		}
	}
	*buf = shared
	framePool.Put(buf)
	return err
}

// Subscribe implements Endpoint.
func (n *TCPNode) Subscribe(stream string) <-chan Envelope {
	return n.box.subscribe(stream)
}

// Post implements Endpoint.
func (n *TCPNode) Post(stream string, msg any) {
	n.box.enqueue(Envelope{From: n.cfg.ID, Stream: stream, Msg: msg})
}

// Close implements Endpoint.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	links := n.links
	n.mu.Unlock()
	close(n.stop)
	_ = n.ln.Close()
	for _, link := range links {
		link.close()
	}
	n.wg.Wait()
	n.box.close()
	return nil
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			continue
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// serveConn handles one inbound connection: data frames in, cumulative
// acks out on the same connection. Acks are coalesced: one is written
// when the reader has caught up with what the connection has delivered,
// so a burst of inbound frames costs one ack instead of one per frame
// (acks are cumulative, so acknowledging only the newest is lossless).
func (n *TCPNode) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() { _ = conn.Close() }()
	// Unblock the reader on shutdown.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-n.stop:
			_ = conn.Close()
		case <-done:
		}
	}()
	err := n.readFrames(conn)
	if errors.Is(err, errWire) {
		// Not a broken connection but a peer this node cannot talk to (or
		// a corrupt stream): say so. Closing is safe either way — a peer
		// that does speak the format retransmits on its next connection.
		n.wireMismatch.Inc()
		log.Printf("tcpnet %v: closing connection from %s: %v", n.cfg.ID, conn.RemoteAddr(), err)
	}
}

// readFrames runs the acceptor's side of the protocol on conn until the
// connection fails or stops making sense. A write failure ends it too —
// a half-broken link (readable but unwritable) must tear down fully, or
// the sender's retransmission buffer would grow forever waiting for acks.
func (n *TCPNode) readFrames(conn net.Conn) error {
	fr := newFrameReader(conn)
	if err := checkHello(fr.r); err != nil {
		return err
	}
	if _, err := conn.Write(hello[:]); err != nil {
		return err
	}
	ack := [ackLen]byte{kindAck}
	for {
		f, err := fr.next()
		if err != nil {
			return err
		}
		n.framesIn.Inc()
		if !n.deliver(f) {
			n.dupFrames.Inc()
		}
		// Acknowledge regardless: duplicates mean the ack was lost.
		if !fr.buffered() {
			binary.BigEndian.PutUint64(ack[1:], f.Seq)
			if _, err := conn.Write(ack[:]); err != nil {
				return err
			}
		}
	}
}

// deliver hands a frame to the mailbox unless it is a duplicate. The
// lock is held across the hand-over: after a reconnect the old and the
// new connection from one sender are read side by side, and the order of
// the dedup decisions must be the order in the mailbox.
func (n *TCPNode) deliver(f frame) (fresh bool) {
	from := f.Env.From
	n.rmu.Lock()
	defer n.rmu.Unlock()
	switch {
	case f.Inc > n.lastInc[from]:
		// A restarted sender: its sequence numbering begins anew, so
		// the dedup floor must too.
		n.lastInc[from] = f.Inc
	case f.Inc < n.lastInc[from] || f.Seq <= n.lastSeq[from]:
		return false
	}
	n.lastSeq[from] = f.Seq
	if f.Trace != "" {
		n.cfg.Trace.Record(metrics.TraceEvent{
			Trace: f.Trace, Span: metrics.SpanNetRecv,
			Site: int(n.cfg.ID), Note: f.Env.Stream,
		})
	}
	n.box.enqueue(f.Env)
	return true
}

// peerLink owns the outbound traffic to one peer: the encoded frames the
// peer has not acknowledged yet, in one byte buffer, and a writer
// goroutine that dials (and redials) the peer and writes what the
// current connection has not carried. Links are torn down individually
// when membership removes or re-addresses a peer, so close must
// interrupt a writer parked in dial backoff against a dead address, not
// just one waiting for work.
type peerLink struct {
	node *TCPNode
	addr string
	done chan struct{}
	stop chan struct{} // closed by close(); unblocks dial/backoff/write
	once sync.Once
	// wake tells the writer there is something to do: bytes queued, or
	// the connection failed. One pending signal covers any number.
	wake chan struct{}

	bytesOut *metrics.Counter
	unacked  *metrics.Gauge

	mu   sync.Mutex
	conn net.Conn // current outbound connection, for prompt teardown
	// buf[head:] holds the frames sent (or queued) but not acknowledged,
	// back to back in sequence order; buf[sent:] has not been written on
	// conn. The bytes hold no pointers, so a long backlog costs the
	// collector nothing to scan.
	buf        []byte
	head, sent int
	acked      uint64 // sequence number of the last frame before head
	nextSeq    uint64
	writing    bool  // the writer is reading buf's array: do not move bytes within it
	failure    error // why the ack reader gave up on conn; nil while it reads

	// tries and rng drive the reconnect backoff schedule. Both are
	// touched only from the writeLoop goroutine (dial and backoff run
	// there), so they need no lock.
	tries int
	rng   *rand.Rand
}

func newPeerLink(n *TCPNode, id NodeID, addr string) *peerLink {
	peer := strconv.Itoa(int(id))
	l := &peerLink{
		node:     n,
		addr:     addr,
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		bytesOut: n.cfg.Metrics.Counter("transport_bytes_out_total", "peer", peer),
		unacked:  n.cfg.Metrics.Gauge("transport_unacked_bytes", "peer", peer),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(n.cfg.ID)<<32)),
	}
	go l.writeLoop()
	return l
}

// minLinkBuf is the smallest array a link moves its backlog to.
const minLinkBuf = 64 << 10

// enqueue appends one frame around the encoded message and wakes the
// writer. Space the acknowledged prefix occupied is reclaimed here, when
// the array is full: in place if the writer is not reading it and at
// least half would be freed, by moving to a new array otherwise.
func (l *peerLink) enqueue(shared []byte) {
	need := framePrefix + len(shared)
	l.mu.Lock()
	if live := len(l.buf) - l.head; len(l.buf)+need > cap(l.buf) && l.head > 0 {
		if l.writing || l.head < live {
			l.buf = append(make([]byte, 0, max(2*(live+need), minLinkBuf)), l.buf[l.head:]...)
		} else {
			l.buf = l.buf[:copy(l.buf, l.buf[l.head:])]
		}
		l.sent -= l.head
		l.head = 0
	}
	l.nextSeq++
	l.buf = appendFrame(l.buf, l.nextSeq, l.node.inc, shared)
	l.unacked.Set(int64(len(l.buf) - l.head))
	l.mu.Unlock()
	l.signal()
}

func (l *peerLink) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *peerLink) close() {
	l.once.Do(func() {
		close(l.stop)
		l.mu.Lock()
		if l.conn != nil {
			_ = l.conn.Close() // unblock a writer mid-write
		}
		l.mu.Unlock()
	})
	<-l.done
}

// ackUpTo drops acknowledged frames from the retransmission buffer.
func (l *peerLink) ackUpTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.acked < seq && l.head < len(l.buf) {
		l.head += frameLen(l.buf[l.head:])
		l.acked++
	}
	if l.sent < l.head {
		// Acknowledged on an earlier connection after this one began:
		// no need to write them again.
		l.sent = l.head
	}
	if l.head == len(l.buf) && !l.writing {
		l.buf, l.head, l.sent = l.buf[:0], 0, 0
	}
	l.unacked.Set(int64(len(l.buf) - l.head))
}

// take hands the writer what conn has not carried yet — everything
// unacknowledged when conn is new — or the reason its ack reader gave up
// on conn. Until wrote is called the bytes must stay where they are.
func (l *peerLink) take(fresh bool) (chunk []byte, failure error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failure != nil {
		return nil, l.failure
	}
	if fresh {
		l.sent = l.head
	}
	chunk = l.buf[l.sent:]
	l.sent = len(l.buf)
	l.writing = len(chunk) > 0
	return chunk, nil
}

func (l *peerLink) wrote() {
	l.mu.Lock()
	l.writing = false
	l.mu.Unlock()
}

// setConn records the live outbound connection, for teardown and so
// that only its own ack reader can declare it failed. A connection that
// arrives after close() looked for one to tear down is torn down here.
func (l *peerLink) setConn(c net.Conn) {
	l.mu.Lock()
	l.conn, l.failure = c, nil
	l.mu.Unlock()
	select {
	case <-l.stop:
		if c != nil {
			_ = c.Close()
		}
	default:
	}
}

func (l *peerLink) writeLoop() {
	defer close(l.done)
	var conn net.Conn
	disconnect := func() {
		if conn != nil {
			_ = conn.Close()
			conn = nil
		}
		l.setConn(nil)
	}
	defer disconnect()
	for {
		select {
		case <-l.wake:
		case <-l.stop:
			return
		case <-l.node.stop:
			return
		}
		// Write until the link has nothing unwritten. A connection that
		// fails — under the writer or, while it idles, under the ack
		// reader — is replaced once there is something to send, and the
		// new one starts from the oldest unacknowledged byte: retransmission
		// is writing buf[head:] again.
		for {
			chunk, failure := l.take(conn == nil)
			if failure != nil {
				disconnect()
				// A peer that answers in another format will do so again.
				if errors.Is(failure, errWire) && !l.backoff() {
					return
				}
				continue
			}
			if len(chunk) == 0 {
				break
			}
			var err error
			if conn == nil {
				if conn, err = l.dial(); err != nil {
					return // shutting down
				}
				l.setConn(conn)
				go l.readAcks(conn)
				_, err = conn.Write(hello[:])
			}
			if err == nil {
				_, err = conn.Write(chunk)
			}
			size, frames := len(chunk), int64(0)
			for ; len(chunk) > 0; chunk = chunk[frameLen(chunk):] {
				frames++
			}
			l.wrote() // chunk's bytes may move from here on
			if err != nil {
				disconnect()
				if !l.backoff() {
					return
				}
				continue
			}
			l.bytesOut.Add(uint64(size))
			l.node.batchSizes.ObserveInt(frames)
		}
	}
}

// readAcks consumes acknowledgements from an outbound connection and
// releases the retransmission buffer. When the connection fails — or the
// acceptor turns out not to speak the wire format — it tells the writer,
// unless the writer has moved on to another connection already.
func (l *peerLink) readAcks(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64*ackLen)
	err := checkHello(r)
	var ack [ackLen]byte
	for err == nil {
		if _, err = io.ReadFull(r, ack[:]); err == nil {
			if ack[0] != kindAck {
				err = fmt.Errorf("%w: frame kind %d where an ack was expected", errWire, ack[0])
				break
			}
			l.ackUpTo(binary.BigEndian.Uint64(ack[1:]))
		}
	}
	if errors.Is(err, errWire) {
		l.node.wireMismatch.Inc()
		log.Printf("tcpnet %v: closing connection to %s: %v", l.node.cfg.ID, l.addr, err)
	}
	l.mu.Lock()
	if l.conn == conn {
		l.failure = err
	}
	l.mu.Unlock()
	l.signal()
}

// backoff waits before the next reconnection attempt. Consecutive
// failures back off exponentially from the configured DialRetry floor
// up to a 16× cap, with up to +50% random jitter so that after a
// partition heals the reconnect attempts of many peers do not arrive
// in lockstep at a still-recovering node. A successful dial resets the
// schedule to the floor (see dial).
func (l *peerLink) backoff() bool {
	l.node.dialRetries.Inc()
	d := l.node.cfg.DialRetry
	if shift := l.tries; shift > 0 {
		if shift > 4 {
			shift = 4
		}
		d <<= shift
	}
	if l.tries < 4 {
		l.tries++
	}
	d += time.Duration(l.rng.Int63n(int64(d)/2 + 1))
	select {
	case <-l.node.stop:
		return false
	case <-l.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// dial connects to the peer, retrying until success, node shutdown, or
// link teardown (peer removed from the group). The dial itself is
// interruptible: close() must return promptly even while a connection
// attempt to a dead address is in flight — membership changes tear
// links down from the replica's commit path, which must not absorb a
// multi-second dial timeout.
func (l *peerLink) dial() (net.Conn, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-l.stop:
			cancel()
		case <-l.node.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	d := net.Dialer{Timeout: 2 * time.Second}
	for {
		select {
		case <-l.stop:
			return nil, ErrClosed
		default:
		}
		conn, err := d.DialContext(ctx, "tcp", l.addr)
		if err == nil {
			l.tries = 0
			return conn, nil
		}
		if !l.backoff() {
			return nil, ErrClosed
		}
	}
}
