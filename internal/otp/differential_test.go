package otp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"otpdb/internal/abcast"
)

// This file holds MultiManager — the scheduler the product runs — to the
// paper's pseudocode: Manager (oracle_test.go) and a MultiManager fed
// one-class transactions receive the same Opt-deliver / executed /
// TO-deliver stream and must make the same executor calls (kind, id and
// epoch, in order) and expose the same Stats, commit log, definitive
// index and class queues after every single event.

// call is one executor call as either manager makes it.
type call struct {
	kind  actionKind
	id    abcast.MsgID
	epoch int
}

func (c call) String() string {
	return fmt.Sprintf("%s(%v,e%d)", [...]string{actAbort: "abort", actCommit: "commit", actSubmit: "submit"}[c.kind], c.id, c.epoch)
}

// callLog is the manual executor behind both managers: it records every
// call and which transactions are running at which epoch; the driver
// decides when an execution completes.
type callLog struct {
	calls   []call
	running map[abcast.MsgID]int
}

func (l *callLog) record(kind actionKind, id abcast.MsgID, epoch int) {
	l.calls = append(l.calls, call{kind, id, epoch})
	if kind == actSubmit {
		l.running[id] = epoch
	} else {
		delete(l.running, id)
	}
}

type oracleExec struct{ callLog }

func (e *oracleExec) Submit(tx *Txn, epoch int) { e.record(actSubmit, tx.ID, epoch) }
func (e *oracleExec) Abort(tx *Txn)             { e.record(actAbort, tx.ID, tx.Epoch()) }
func (e *oracleExec) Commit(tx *Txn)            { e.record(actCommit, tx.ID, tx.Epoch()) }

type multiExec struct{ callLog }

func (e *multiExec) Submit(tx *MultiTxn, epoch int) { e.record(actSubmit, tx.ID, epoch) }
func (e *multiExec) Abort(tx *MultiTxn)             { e.record(actAbort, tx.ID, tx.Epoch()) }
func (e *multiExec) Commit(tx *MultiTxn)            { e.record(actCommit, tx.ID, tx.Epoch()) }

// pair is the oracle and the product scheduler side by side. mc is the
// MultiManager's commit log, recorded through its OnCommit hook.
type pair struct {
	o       *Manager
	oe      *oracleExec
	m       *MultiManager
	me      *multiExec
	mc      []CommitRecord
	classes map[ClassID]bool
}

func newPair() *pair {
	p := &pair{
		oe:      &oracleExec{callLog{running: map[abcast.MsgID]int{}}},
		me:      &multiExec{callLog{running: map[abcast.MsgID]int{}}},
		classes: map[ClassID]bool{},
	}
	p.o = NewManager(p.oe, Hooks{})
	p.m = NewMultiManager(p.me, MultiHooks{OnCommit: func(tx *MultiTxn) {
		p.mc = append(p.mc, CommitRecord{ID: tx.ID, Class: tx.Classes[0], TOIndex: tx.TOIndex()})
	}})
	return p
}

func (p *pair) opt(n uint64, class ClassID) {
	p.classes[class] = true
	eo := p.o.OnOptDeliver(id(n), class, nil)
	em := p.m.OnOptDeliver(id(n), []ClassID{class}, nil)
	if eo != nil || em != nil {
		panic(fmt.Sprintf("opt %d: oracle %v, multi %v", n, eo, em))
	}
}

func (p *pair) to(n uint64) {
	eo, em := p.o.OnTODeliver(id(n)), p.m.OnTODeliver(id(n))
	if eo != nil || em != nil {
		panic(fmt.Sprintf("to %d: oracle %v, multi %v", n, eo, em))
	}
}

// executed reports the completion of n's execution at the given epoch to
// both managers; a current one ends the run, a stale one must be ignored.
func (p *pair) executed(n uint64, epoch int) {
	for _, log := range []*callLog{&p.oe.callLog, &p.me.callLog} {
		if cur, ok := log.running[id(n)]; ok && cur == epoch {
			delete(log.running, id(n))
		}
	}
	p.o.OnExecuted(id(n), epoch)
	p.m.OnExecuted(id(n), epoch)
}

// runnable lists the oracle's running transactions, ascending.
func (p *pair) runnable() []uint64 {
	out := make([]uint64, 0, len(p.oe.running))
	for rid := range p.oe.running {
		out = append(out, rid.Seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diff reports the first observable difference between the two managers,
// or "" when there is none.
func (p *pair) diff() string {
	if !slices.Equal(p.oe.calls, p.me.calls) {
		return fmt.Sprintf("executor calls\n  oracle: %v\n  multi:  %v", p.oe.calls, p.me.calls)
	}
	if so, sm := p.o.Stats(), p.m.Stats(); so != sm {
		return fmt.Sprintf("stats: oracle %+v, multi %+v", so, sm)
	}
	if co := p.o.Committed(); !slices.Equal(co, p.mc) {
		return fmt.Sprintf("commit log: oracle %v, multi %v", co, p.mc)
	}
	if lo, lm := p.o.LastTOIndex(), p.m.LastTOIndex(); lo != lm {
		return fmt.Sprintf("last TO index: oracle %d, multi %d", lo, lm)
	}
	if po, pm := p.o.Pending(), p.m.Pending(); po != pm {
		return fmt.Sprintf("pending: oracle %d, multi %d", po, pm)
	}
	for class := range p.classes {
		if qo, qm := p.o.QueueSnapshot(class), p.m.QueueSnapshot(class); !slices.Equal(qo, qm) {
			return fmt.Sprintf("queue %s: oracle %v, multi %v", class, qo, qm)
		}
	}
	if err := p.m.CheckInvariants(); err != nil {
		return "multi invariant: " + err.Error()
	}
	return ""
}

const differentialSchedules = 12000

// TestDifferentialRandomSchedules drives the pair through randomized
// bounded-displacement schedules — the property harness's adversary plus
// stale completions (an execution finishing after its abort).
func TestDifferentialRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= differentialSchedules; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numTxns, numClasses, disp := 5+rng.Intn(40), 1+rng.Intn(6), rng.Intn(8)
		classOf := make([]ClassID, numTxns+1)
		for i := 1; i <= numTxns; i++ {
			classOf[i] = ClassID(fmt.Sprintf("c%d", rng.Intn(numClasses)))
		}
		tentative := boundedShuffle(numTxns, disp, rng)
		p := newPair()
		check := func(what string, n uint64) {
			if d := p.diff(); d != "" {
				t.Fatalf("seed %d (%d txns, %d classes, displacement %d) after %s %d: %s",
					seed, numTxns, numClasses, disp, what, n, d)
			}
		}
		var stale []call // submissions an abort has since superseded
		oi, ti, seen := 0, 0, 0
		opted := make(map[uint64]bool)
		for oi < numTxns || ti < numTxns || p.o.Pending() > 0 {
			switch rng.Intn(4) {
			case 0:
				if oi < numTxns {
					n := tentative[oi]
					oi++
					opted[n] = true
					p.opt(n, classOf[n])
					check("opt", n)
				}
			case 1:
				// Local Order: TO only after Opt at this site.
				if next := uint64(ti + 1); ti < numTxns && opted[next] {
					ti++
					p.to(next)
					check("to", next)
				}
			case 2:
				if run := p.runnable(); len(run) > 0 {
					n := run[rng.Intn(len(run))]
					p.executed(n, p.oe.running[id(n)])
					check("executed", n)
				} else if oi == numTxns && ti == numTxns {
					t.Fatalf("seed %d: deadlock, %d pending and nothing running", seed, p.o.Pending())
				}
			case 3:
				if len(stale) > 0 {
					c := stale[rng.Intn(len(stale))]
					p.executed(c.id.Seq, c.epoch)
					check("stale completion of", c.id.Seq)
				}
			}
			for ; seen < len(p.oe.calls); seen++ {
				if c := p.oe.calls[seen]; c.kind == actAbort {
					stale = append(stale, call{actSubmit, c.id, c.epoch - 1})
				}
			}
		}
		if got := len(p.mc); got != numTxns {
			t.Fatalf("seed %d: %d of %d committed", seed, got, numTxns)
		}
	}
}

// step is one event of an exhaustive schedule: 'o'pt-deliver, 't'o-deliver
// or e'x'ecuted, of transaction n.
type step struct {
	kind byte
	n    uint64
}

func (s step) String() string { return fmt.Sprintf("%c%d", s.kind, s.n) }

// exhaustive walks every schedule of one configuration — class of each
// transaction, tentative order; the definitive order is 1..n — depth
// first, replaying each prefix on a fresh pair and cutting where two
// paths meet in the same state of both managers. It counts the
// interleavings (paths to quiescence), not the states.
type exhaustive struct {
	t         *testing.T
	classOf   []ClassID // 1-based
	tentative []uint64
	memo      map[string]uint64
	edges     int
}

func (x *exhaustive) walk(prefix []step) uint64 {
	n := len(x.tentative)
	p := newPair()
	oi, ti := 0, 0
	opted := make(map[uint64]bool)
	for i, s := range prefix {
		switch s.kind {
		case 'o':
			oi++
			opted[s.n] = true
			p.opt(s.n, x.classOf[s.n])
		case 't':
			ti++
			p.to(s.n)
		case 'x':
			p.executed(s.n, p.oe.running[id(s.n)])
		}
		if i == len(prefix)-1 { // earlier steps were checked on the way here
			x.edges++
			if d := p.diff(); d != "" {
				x.t.Fatalf("classes %v tentative %v after %v: %s", x.classOf[1:], x.tentative, prefix, d)
			}
		}
	}
	key := x.key(p, oi, ti)
	if paths, ok := x.memo[key]; ok {
		return paths
	}
	var next []step
	if oi < n {
		next = append(next, step{'o', x.tentative[oi]})
	}
	if ti < n && opted[uint64(ti+1)] { // Local Order
		next = append(next, step{'t', uint64(ti + 1)})
	}
	for _, r := range p.runnable() {
		next = append(next, step{'x', r})
	}
	var paths uint64
	if len(next) == 0 {
		if p.o.Pending() != 0 || len(p.o.Committed()) != n {
			x.t.Fatalf("classes %v tentative %v: stuck after %v", x.classOf[1:], x.tentative, prefix)
		}
		paths = 1
	}
	for _, s := range next {
		paths += x.walk(append(prefix[:len(prefix):len(prefix)], s))
	}
	x.memo[key] = paths
	return paths
}

// key renders everything that decides what the two managers do next (and
// everything diff compares), private fields included.
func (x *exhaustive) key(p *pair, oi, ti int) string {
	var b strings.Builder
	fmt.Fprint(&b, oi, ti, p.o.stats, p.o.committed, p.m.stats, p.mc)
	for _, c := range []ClassID{"A", "B"} {
		for _, tx := range p.o.queues[c] {
			fmt.Fprint(&b, c, tx.ID.Seq, tx.exec, tx.deliv, tx.running, tx.epoch, tx.toIndex)
		}
		b.WriteByte('|')
		for _, tx := range p.m.queues[c] {
			fmt.Fprint(&b, c, tx.ID.Seq, tx.exec, tx.deliv, tx.running, tx.epoch, tx.toIndex, tx.reordered)
		}
	}
	return b.String()
}

// permutations returns every ordering of 1..n.
func permutations(n int) [][]uint64 {
	if n == 0 {
		return [][]uint64{nil}
	}
	var out [][]uint64
	for _, sub := range permutations(n - 1) {
		for at := 0; at <= len(sub); at++ {
			perm := append(append(append([]uint64{}, sub[:at]...), uint64(n)), sub[at:]...)
			out = append(out, perm)
		}
	}
	return out
}

// TestExhaustiveSmallSchedules enumerates every Local-Order-respecting
// interleaving of Opt-deliveries, TO-deliveries and execution completions
// for up to four transactions over up to two classes: every assignment of
// classes (the first transaction's class fixed, the two names being
// interchangeable), every tentative order against the definitive order
// 1..n, and every moment an execution may complete.
func TestExhaustiveSmallSchedules(t *testing.T) {
	var configs, states, edges int
	var total uint64
	for n := 1; n <= 4; n++ {
		for assign := 0; assign < 1<<(n-1); assign++ {
			classOf := make([]ClassID, n+1)
			for i := 1; i <= n; i++ {
				classOf[i] = "A"
				if i > 1 && assign>>(i-2)&1 == 1 {
					classOf[i] = "B"
				}
			}
			for _, tentative := range permutations(n) {
				x := &exhaustive{t: t, classOf: classOf, tentative: tentative, memo: map[string]uint64{}}
				total += x.walk(nil)
				configs++
				states += len(x.memo)
				edges += x.edges
			}
		}
	}
	t.Logf("%d interleavings over %d configurations (%d distinct states, %d transitions checked)",
		total, configs, states, edges)
	if configs != 1+2*2+4*6+8*24 {
		t.Fatalf("enumerated %d configurations", configs)
	}
}
