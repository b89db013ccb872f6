// Package abcast implements Atomic Broadcast with Optimistic Delivery as
// specified in Section 2.1 of Kemme et al. (ICDCS'99), with the primitives
//
//	TO-broadcast(m) — Broadcast
//	Opt-deliver(m)  — Event{Kind: Opt}, the tentative order (raw reception)
//	TO-deliver(m)   — Event{Kind: TO}, the definitive total order
//
// and the properties Termination, Global Agreement, Local Agreement,
// Global Order and Local Order.
//
// Optimistic is the OPT-ABcast realization. Messages are multicast to all
// sites and Opt-delivered the instant they are received; the definitive
// order is agreed in stages, one consensus instance per stage, each site
// proposing its tentative order. With spontaneous total order all
// proposals match and consensus terminates in one round-trip; mismatches
// cost extra rounds but deliveries are never wrong (commitment waits for
// TO). WithConservativeDelivery turns it into the classic atomic broadcast
// the paper compares against: Opt and TO are emitted together at
// definitive time, so nothing executes while the order is being agreed.
package abcast

import (
	"strconv"

	"otpdb/internal/transport"
)

// StreamData is the transport stream of the message bodies (TO-broadcast
// payloads) and their retransmission requests.
const StreamData = "ab.data"

// MsgID identifies a TO-broadcast message network-wide: the originating
// site plus a per-origin sequence number.
type MsgID struct {
	Origin transport.NodeID
	Seq    uint64
}

// String renders "m<origin>.<seq>". Built with strconv rather than
// fmt: the trace ring formats an ID per recorded span, which puts this
// on the traced commit path.
func (m MsgID) String() string {
	b := make([]byte, 1, 16)
	b[0] = 'm'
	b = strconv.AppendInt(b, int64(m.Origin), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, m.Seq, 10)
	return string(b)
}

// EventKind distinguishes the two delivery primitives.
type EventKind int

// Delivery kinds.
const (
	// Opt is a tentative (optimistic) delivery carrying the payload.
	Opt EventKind = iota + 1
	// TO is the definitive delivery; per the paper it carries only the
	// confirmation (the message identifier), the body having been
	// Opt-delivered already.
	TO
)

func (k EventKind) String() string {
	switch k {
	case Opt:
		return "Opt"
	case TO:
		return "TO"
	default:
		return "EventKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Event is a delivery at one site. The single event stream preserves the
// relative order of Opt and TO deliveries exactly as the protocol emitted
// them, which the transaction manager depends on.
type Event struct {
	Kind    EventKind
	ID      MsgID
	Payload any // set on Opt events only
}

// Broadcaster is one site's attachment to the atomic broadcast.
type Broadcaster interface {
	// Broadcast TO-broadcasts a payload and returns its message ID.
	Broadcast(payload any) (MsgID, error)
	// Deliveries is the ordered stream of Opt and TO events at this site.
	Deliveries() <-chan Event
	// Start launches the engine.
	Start() error
	// Stop terminates the engine and closes Deliveries.
	Stop() error
}

// DataMsg is the wire form of a TO-broadcast payload.
type DataMsg struct {
	ID      MsgID
	Payload any
}

// TraceID surfaces the payload's trace ID (empty when the payload is
// untraced), so TCP frames carrying broadcast bodies expose the trace
// in their headers.
func (d DataMsg) TraceID() string { return transport.TraceOf(d.Payload) }

// BodyReq asks peers to retransmit the bodies (DataMsg) of the given
// messages. A rejoining site needs it for messages that were decided in
// the stages it resumes at but whose bodies were broadcast while it was
// down; peers serve from their retained definitive history.
type BodyReq struct {
	IDs []MsgID
}

// DefEntry is one definitive delivery in a site's retained history: the
// message's global definitive position (1-based, identical at every
// site), its identifier, and — once the body has arrived — its payload.
// The retained history is what checkpoint-based recovery streams to a
// rejoining replica to close the gap between the checkpoint index and
// the consensus stage it re-enters at.
type DefEntry struct {
	Seq     uint64
	ID      MsgID
	Payload any
	HasBody bool
}

// Stats are cumulative engine counters, exposed for the experiment
// harness.
type Stats struct {
	// Broadcasts counts locally TO-broadcast messages.
	Broadcasts uint64
	// OptDelivered counts Opt events emitted.
	OptDelivered uint64
	// TODelivered counts TO events emitted.
	TODelivered uint64
	// Stages counts decided consensus stages.
	Stages uint64
	// FastStages counts stages whose decision and this site's own
	// proposal for the stage named the same messages in the same order,
	// ids that earlier stages had decided aside (proposals are cumulative
	// and overlap) — the spontaneous-order fast path.
	FastStages uint64
	// Reorders counts TO deliveries whose definitive position inverted
	// the local optimistic delivery order (always 0 under conservative
	// delivery: there the Opt events are emitted in definitive order).
	Reorders uint64
}
