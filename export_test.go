package otpdb

import (
	"time"

	"otpdb/internal/shard"
)

// WithConsensusRoundTimeout replaces the 100 ms consensus round timeout:
// lower values recover faster from a crashed coordinator at the cost of
// spurious rounds.
func WithConsensusRoundTimeout(d time.Duration) Option {
	return func(c *config) { c.roundTimeout = d }
}

// WithCrossShardTimeouts replaces the cross-shard protocol's timeouts
// (3s and 5s): vote bounds a coordinator's wait for every shard's prepare
// vote before it proposes abort, and resolve is how long an orphaned
// prepare may block before the resolver presumes its coordinator dead
// (resolve must exceed vote).
func WithCrossShardTimeouts(vote, resolve time.Duration) Option {
	return func(c *config) {
		c.voteTimeout = vote
		c.resolveAfter = resolve
	}
}

// Test hooks on the cross-shard coordinator (crash-point injection).
// Install after Start and before submitting cross-shard transactions.

// SetCrashBeforeDecide makes the coordinator abandon an attempt after
// collecting votes and before submitting the decide — the classic 2PC
// in-doubt point — whenever fn returns true.
func (c *Cluster) SetCrashBeforeDecide(fn func() bool) {
	if fn == nil {
		c.coord.CrashBeforeDecide = nil
		return
	}
	c.coord.CrashBeforeDecide = func(shard.XID) bool { return fn() }
}

// SetCrashAfterHomeDecide makes the coordinator abandon an attempt right
// after the home shard commits the decision record, whenever fn returns
// true.
func (c *Cluster) SetCrashAfterHomeDecide(fn func() bool) {
	if fn == nil {
		c.coord.CrashAfterHomeDecide = nil
		return
	}
	c.coord.CrashAfterHomeDecide = func(shard.XID) bool { return fn() }
}
