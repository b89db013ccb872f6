// Package otp implements the paper's core contribution: the OTP algorithm
// for optimistic transaction processing over an atomic broadcast with
// optimistic delivery (Kemme, Pedone, Alonso, Schiper — ICDCS'99,
// Section 3).
//
// Transactions are partitioned into disjoint conflict classes; each class
// has a FIFO class queue (Figure 2). Opt-delivery appends a transaction to
// its queue and starts it when it reaches the head (Serialization module,
// Figure 4). Completion is recorded, or the transaction commits if its
// definitive order is already known (Execution module, Figure 5).
// TO-delivery confirms the definitive position: matching tentative
// executions commit; mismatches abort the head and reorder the confirmed
// transaction before all unconfirmed ones (Correctness Check module,
// Figure 6).
//
// The MultiManager is a synchronous state machine: its On* methods are
// driven by the replica's delivery loop (internal/db) or directly by
// tests. Actual data access is delegated to a MultiExecutor.
package otp

import (
	"errors"
	"fmt"

	"otpdb/internal/abcast"
)

// ClassID names a conflict class (a database partition; Section 2.3).
type ClassID string

// ExecState is the execution state of a transaction (Section 3.3):
// active until its stored procedure has run to completion, executed
// afterwards.
type ExecState int

// Execution states.
const (
	// Active means the transaction has not finished executing (it may be
	// running or waiting in its class queue).
	Active ExecState = iota + 1
	// Executed means the stored procedure ran to completion but the
	// transaction has not committed.
	Executed
)

func (s ExecState) String() string {
	switch s {
	case Active:
		return "active"
	case Executed:
		return "executed"
	default:
		return fmt.Sprintf("ExecState(%d)", int(s))
	}
}

// DeliveryState is the delivery state of a transaction (Section 3.3):
// pending after Opt-delivery, committable after TO-delivery.
type DeliveryState int

// Delivery states.
const (
	// Pending means only the tentative position is known.
	Pending DeliveryState = iota + 1
	// Committable means the definitive position is confirmed.
	Committable
)

func (s DeliveryState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Committable:
		return "committable"
	default:
		return fmt.Sprintf("DeliveryState(%d)", int(s))
	}
}

// State is an externally visible snapshot of a transaction's state.
type State struct {
	ID      abcast.MsgID
	Class   ClassID
	Exec    ExecState
	Deliv   DeliveryState
	Running bool
	TOIndex int64
}

func (s State) String() string {
	return fmt.Sprintf("%v[%s;%s]", s.ID, s.Exec, s.Deliv)
}

// Stats counts manager events; the experiment harness reads them.
type Stats struct {
	// OptDelivered counts Opt-delivered transactions (queue appends).
	OptDelivered uint64
	// TODelivered counts TO-delivered confirmations.
	TODelivered uint64
	// Commits counts committed transactions.
	Commits uint64
	// Aborts counts CC8 aborts (tentative execution undone and redone).
	Aborts uint64
	// Reorders counts CC10 repositionings that actually moved the
	// transaction (a tentative/definitive mismatch on conflicting
	// transactions).
	Reorders uint64
	// Submits counts executor submissions (first runs and re-runs).
	Submits uint64
}

// Errors reported by the manager. They indicate protocol violations by the
// layer above (the broadcast must Opt-deliver before TO-delivering and
// never deliver twice), so callers usually treat them as fatal.
var (
	// ErrUnknownTxn is returned by OnTODeliver for a transaction that was
	// never Opt-delivered (violates the broadcast's Local Order property).
	ErrUnknownTxn = errors.New("otp: TO-delivery for unknown transaction")
	// ErrDuplicate is returned when a transaction is delivered twice.
	ErrDuplicate = errors.New("otp: duplicate delivery")
)

// actionKind orders deferred executor calls.
type actionKind int

const (
	actAbort actionKind = iota + 1
	actCommit
	actSubmit
)
