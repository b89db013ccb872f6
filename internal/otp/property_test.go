package otp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"otpdb/internal/abcast"
)

// schedule is a randomly generated adversarial driver: it interleaves
// Opt-deliveries (in a site-specific tentative order), TO-deliveries (in
// the global definitive order 1..numTxns) and execution completions,
// checking the manager invariants after every step. Transactions declare
// one to three of numClasses classes.
type schedule struct {
	numTxns    int
	numClasses int
	seed       int64
}

// ran is what a schedule leaves behind.
type ran struct {
	m       *MultiManager
	exec    *recordingMultiExec
	classes map[uint64][]ClassID // class set per transaction
}

// run drives one manager through the schedule. The class sets depend on
// the seed alone; the tentative order is a bounded-displacement shuffle of
// the definitive order, mimicking spontaneous-order mismatches.
func (s schedule) run(t *testing.T, displacement int) ran {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	m, exec := newMulti(false)

	classSets := make(map[uint64][]ClassID, s.numTxns)
	for i := 1; i <= s.numTxns; i++ {
		n := 1 + rng.Intn(3)
		set := make([]ClassID, 0, n)
		for j := 0; j < n; j++ {
			set = append(set, ClassID(fmt.Sprintf("c%d", rng.Intn(s.numClasses))))
		}
		classSets[uint64(i)] = set
	}
	tentative := boundedShuffle(s.numTxns, displacement, rng)

	running := func() []abcast.MsgID {
		exec.mu.Lock()
		defer exec.mu.Unlock()
		var out []abcast.MsgID
		for rid := range exec.running {
			out = append(out, rid)
		}
		return out
	}
	oi, ti := 0, 0
	opted := make(map[uint64]bool)
	for oi < len(tentative) || ti < s.numTxns || m.Pending() > 0 {
		progressed := false
		switch rng.Intn(3) {
		case 0:
			if oi < len(tentative) {
				n := tentative[oi]
				oi++
				opted[n] = true
				if err := m.OnOptDeliver(id(n), classSets[n], nil); err != nil {
					t.Fatal(err)
				}
				progressed = true
			}
		case 1:
			// Local Order: TO only after Opt at this site.
			if next := uint64(ti + 1); ti < s.numTxns && opted[next] {
				ti++
				if err := m.OnTODeliver(id(next)); err != nil {
					t.Fatal(err)
				}
				progressed = true
			}
		case 2:
			if runnable := running(); len(runnable) > 0 {
				exec.complete(runnable[rng.Intn(len(runnable))])
				progressed = true
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("invariant violated mid-schedule: %v", err)
		}
		if !progressed && oi == len(tentative) && ti == s.numTxns {
			// Only completions remain; drain them deterministically.
			runnable := running()
			if len(runnable) == 0 && m.Pending() > 0 {
				t.Fatalf("deadlock: %d pending, nothing running (seed %d)", m.Pending(), s.seed)
			}
			for _, rid := range runnable {
				exec.complete(rid)
			}
		}
	}
	return ran{m: m, exec: exec, classes: classSets}
}

// perClassCommits lists, per class, the transactions that declared it in
// the order they committed.
func (r ran) perClassCommits() map[ClassID][]abcast.MsgID {
	out := make(map[ClassID][]abcast.MsgID)
	for _, cid := range r.exec.commits {
		for _, class := range normalizeClasses(nil, r.classes[cid.Seq]) {
			out[class] = append(out[class], cid)
		}
	}
	return out
}

// boundedShuffle returns 1..n with each element displaced at most d
// positions from its sorted slot.
func boundedShuffle(n, d int, rng *rand.Rand) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	for i := 0; i < n-1; i++ {
		if d > 0 && rng.Intn(2) == 0 {
			j := i + 1 + rng.Intn(d)
			if j >= n {
				j = n - 1
			}
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// quickSchedule maps quick's random bytes to a schedule.
func quickSchedule(seed int64, txns, classes uint8) schedule {
	return schedule{numTxns: int(txns%40) + 5, numClasses: int(classes%6) + 1, seed: seed}
}

// Theorem 4.1 (starvation freedom) and deadlock freedom: every
// TO-delivered transaction eventually commits, under arbitrary
// interleavings.
func TestQuickStarvationFreedom(t *testing.T) {
	f := func(seed int64, txns, classes, disp uint8) bool {
		s := quickSchedule(seed, txns, classes)
		r := s.run(t, int(disp%8))
		return r.m.Pending() == 0 && r.m.Stats().Commits == uint64(s.numTxns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 4.1: conflicting transactions — any two sharing a class — commit
// in the definitive order.
func TestQuickConflictingCommitsFollowTOOrder(t *testing.T) {
	f := func(seed int64, txns, classes, disp uint8) bool {
		r := quickSchedule(seed, txns, classes).run(t, int(disp%8))
		for _, seq := range r.perClassCommits() {
			// The definitive order is 1..n, so TOIndex == Seq.
			if !slices.IsSortedFunc(seq, func(a, b abcast.MsgID) int { return int(a.Seq) - int(b.Seq) }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 4.2 (1-copy-serializability, structural part): two sites with
// different tentative orders but the same definitive order commit each
// conflict class in exactly the same sequence.
func TestQuickSitesAgreeOnPerClassCommitOrder(t *testing.T) {
	f := func(seed int64, txns, classes uint8) bool {
		// Same definitive order and classes (seed-determined), different
		// interleaving/displacement per site.
		s := schedule{numTxns: int(txns%30) + 5, numClasses: int(classes%6) + 1, seed: seed}
		c1, c2 := s.run(t, 3).perClassCommits(), s.run(t, 7).perClassCommits()
		if len(c1) != len(c2) {
			return false
		}
		for class, seq1 := range c1 {
			if !slices.Equal(seq1, c2[class]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Abort count sanity: with identical tentative and definitive orders there
// are no aborts regardless of completion timing.
func TestQuickNoMismatchNoAborts(t *testing.T) {
	f := func(seed int64, txns, classes uint8) bool {
		r := quickSchedule(seed, txns, classes).run(t, 0) // displacement 0: tentative == definitive
		return r.m.Stats().Aborts == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A transaction is aborted at most once per TO-delivery mismatch and every
// abort is followed by a successful re-execution (no lost work).
func TestQuickSubmitsCoverAbortsAndCommits(t *testing.T) {
	f := func(seed int64, txns, classes, disp uint8) bool {
		st := quickSchedule(seed, txns, classes).run(t, int(disp%8)).m.Stats()
		// Every commit needed at least one submit; every abort forces a
		// resubmission. (Only a started transaction is ever aborted, so
		// the upper bound holds.)
		return st.Submits >= st.Commits && st.Submits <= st.Commits+st.Aborts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
