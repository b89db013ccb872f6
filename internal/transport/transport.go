// Package transport defines the message-passing abstraction used by the
// broadcast and consensus protocols, together with two implementations:
//
//   - memnet: an in-process transport for tests and single-process
//     clusters, with optional delay, reordering, partitions and crashes.
//   - tcpnet: a real TCP mesh for multi-process deployments (cmd/otpd),
//     speaking self-contained binary frames (wire.go): a message is
//     encoded once by its own codec and retransmitted as bytes.
//
// Both provide reliable FIFO point-to-point channels between correct
// nodes, matching the paper's system model (asynchronous, reliable
// communication; crash failures).
package transport

import (
	"errors"
	"fmt"
)

// NodeID identifies a node of the group. Nodes are numbered densely from
// zero; the group membership is static, as in the paper.
type NodeID int

func (n NodeID) String() string { return fmt.Sprintf("n%d", n) }

// Envelope is a received message together with its origin and stream.
type Envelope struct {
	From   NodeID
	Stream string
	Msg    any
}

// Endpoint is one node's attachment to the group communication layer.
// Streams multiplex independent protocols (failure detector, consensus,
// broadcast) over one transport.
type Endpoint interface {
	// ID returns this node's identifier.
	ID() NodeID
	// N returns the group size.
	N() int
	// Send transmits msg to a single node on the given stream. Sending to
	// oneself loops back locally.
	Send(to NodeID, stream string, msg any) error
	// Broadcast transmits msg to every node in the group, including the
	// sender (self-delivery loops back locally).
	Broadcast(stream string, msg any) error
	// Subscribe returns the reception channel for a stream. Messages
	// arriving before the first Subscribe call for their stream are
	// buffered. Subscribe is idempotent: repeated calls return the same
	// channel.
	Subscribe(stream string) <-chan Envelope
	// Post puts msg on this node's own reception queue for the stream, as
	// if it had just arrived from this node: behind what the stream has
	// received so far, ahead of what it receives later. It is how a
	// protocol goroutine that waits on nothing but its stream is told of
	// local events — a request from the application, a timer, a stop. A
	// posted message is not traffic: it is never routed, delayed, lost to
	// a partition or a modelled crash, or counted, and no codec need know
	// its type. Post never blocks; after Close the message is dropped.
	Post(stream string, msg any)
	// Close detaches the endpoint and releases its goroutines.
	Close() error
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// TraceCarrier is implemented by messages that belong to a traced
// transaction. Transports surface the ID in their frame headers so a
// receiving site can record the network hop into its trace ring
// without decoding (or even understanding) the payload.
type TraceCarrier interface {
	TraceID() string
}

// TraceOf extracts the trace ID a message carries, if any.
func TraceOf(msg any) string {
	if tc, ok := msg.(TraceCarrier); ok {
		return tc.TraceID()
	}
	return ""
}
