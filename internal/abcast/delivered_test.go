package abcast

import (
	"math/rand"
	"testing"
)

// checkSeqSet holds s against the reference: same members on every probe,
// runs sorted, disjoint and non-adjacent.
func checkSeqSet(t *testing.T, s *seqSet, ref map[uint64]bool, probes []uint64) {
	t.Helper()
	for i, r := range s.runs {
		if r.lo > r.hi {
			t.Fatalf("run %d inverted: %v", i, r)
		}
		if i > 0 && s.runs[i-1].hi+1 >= r.lo {
			t.Fatalf("runs %d and %d overlap or touch: %v %v", i-1, i, s.runs[i-1], r)
		}
	}
	for n := range ref {
		if !s.has(n) {
			t.Fatalf("%d added but not in the set (runs %v)", n, s.runs)
		}
	}
	for _, n := range probes {
		if s.has(n) != ref[n] {
			t.Fatalf("has(%d) = %v, reference says %v (runs %v)", n, s.has(n), ref[n], s.runs)
		}
	}
	var top uint64
	for n := range ref {
		top = max(top, n)
	}
	if s.max() != top {
		t.Fatalf("max = %d, want %d", s.max(), top)
	}
}

// The orders an origin's numbers are released in: in sequence, in sequence
// with jitter, after the rejoin jump, with holes that never fill, twice.
func TestDeliveredSetMatchesReference(t *testing.T) {
	const slack = 1 << 20 // statex.ResumeSeqSlack
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		var s seqSet
		ref := make(map[uint64]bool)
		var probes []uint64
		holes := 0
		next := uint64(1)
		emit := func(n int, window int) {
			// n numbers from next on, each at most window places from its turn.
			batch := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				if rng.Intn(40) == 0 {
					holes++ // a broadcast the transport refused: never delivered
					probes = append(probes, next)
				} else {
					batch = append(batch, next)
				}
				next++
			}
			for i := range batch {
				j := i + rng.Intn(window)
				if j < len(batch) {
					batch[i], batch[j] = batch[j], batch[i]
				}
			}
			for _, n := range batch {
				s.add(n)
				ref[n] = true
				if rng.Intn(10) == 0 {
					s.add(n) // a duplicate release must not change anything
				}
				probes = append(probes, n, n+1)
			}
		}
		emit(300, 1+rng.Intn(8))
		jumps := rng.Intn(3)
		for j := 0; j < jumps; j++ {
			next += slack
			probes = append(probes, next-1, next-slack/2)
			emit(300, 1+rng.Intn(8))
		}
		checkSeqSet(t, &s, ref, probes)
		if limit := holes + jumps + 1; len(s.runs) > limit {
			t.Fatalf("%d runs for %d holes and %d jumps: the set must not fragment", len(s.runs), holes, jumps)
		}
	}
}

func TestDeliveredSetRanges(t *testing.T) {
	var s seqSet
	s.addRun(5, 9)
	s.addRun(1, 2)
	s.addRun(3, 3) // extends [1,2]; 4 is still missing, so [5,9] stays apart
	if len(s.runs) != 2 || s.runs[0] != (seqRun{1, 3}) || s.runs[1] != (seqRun{5, 9}) {
		t.Fatalf("runs = %v, want [1,3] [5,9]", s.runs)
	}
	s.addRun(2, 20) // swallows both
	if len(s.runs) != 1 || s.runs[0] != (seqRun{1, 20}) {
		t.Fatalf("runs = %v, want [1,20]", s.runs)
	}
	s.addRun(0, 0)
	s.add(^uint64(0))
	if !s.has(0) || !s.has(^uint64(0)) || s.has(21) || len(s.runs) != 2 {
		t.Fatalf("edges: runs = %v", s.runs)
	}

	d := make(deliveredSets)
	d.add(MsgID{Origin: 2, Seq: 7})
	d.add(MsgID{Origin: 0, Seq: 1})
	d.add(MsgID{Origin: 0, Seq: 2})
	d.add(MsgID{Origin: 0, Seq: 9})
	want := []SeqRange{{0, 1, 2}, {0, 9, 9}, {2, 7, 7}}
	got := d.ranges()
	if len(got) != len(want) {
		t.Fatalf("ranges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranges = %v, want %v", got, want)
		}
	}
	if d.has(MsgID{Origin: 1, Seq: 1}) || !d.has(MsgID{Origin: 0, Seq: 9}) {
		t.Fatal("membership across origins")
	}
}

// FuzzDeliveredSet drives the set with arbitrary adds: every two bytes of
// the input are one number (small, so that runs meet and merge), a third
// with its top bit set makes it a run and a jump.
func FuzzDeliveredSet(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{9, 0, 0, 1, 0, 0x83, 5, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s seqSet
		ref := make(map[uint64]bool)
		var probes []uint64
		for ; len(data) >= 3; data = data[3:] {
			lo := uint64(data[0]) | uint64(data[1])<<8
			hi := lo
			if data[2]&0x80 != 0 {
				lo += 1 << 20
				hi = lo + uint64(data[2]&0x7f)
			}
			s.addRun(lo, hi)
			for n := lo; n <= hi; n++ {
				ref[n] = true
			}
			probes = append(probes, lo-1, lo, hi, hi+1)
		}
		checkSeqSet(t, &s, ref, probes)
	})
}
