package abcast

import (
	"sort"

	"otpdb/internal/transport"
)

// SeqRange is one run [Lo, Hi] of an origin's broadcast sequence numbers
// — the wire form of a delivered set, carried by JoinState and
// statex.Done.
type SeqRange struct {
	Origin transport.NodeID
	Lo, Hi uint64
}

// seqSet is a set of one origin's sequence numbers, kept as sorted,
// disjoint, non-adjacent runs. An origin numbers its broadcasts 1, 2, 3…,
// so the set of its messages TO-released here is one run, plus a run per
// permanent hole below it (a broadcast the transport refused, the
// statex.ResumeSeqSlack jump after a rejoin) and a few short-lived ones
// while jitter releases messages out of sequence order. Membership is
// exact: a number is in the set only if it was added.
type seqSet struct {
	runs []seqRun
}

type seqRun struct{ lo, hi uint64 }

// has reports whether n was added.
func (s *seqSet) has(n uint64) bool {
	i := s.search(n)
	return i < len(s.runs) && s.runs[i].lo <= n
}

// search returns the index of the first run whose hi is at or above n.
// The last run is tried first: in sequence order that is where n falls.
func (s *seqSet) search(n uint64) int {
	if last := len(s.runs) - 1; last < 0 || n > s.runs[last].hi {
		return last + 1
	} else if n >= s.runs[last].lo {
		return last
	}
	return sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi >= n })
}

// add inserts n, merging with the runs it touches.
func (s *seqSet) add(n uint64) { s.addRun(n, n) }

// addRun inserts every number of [lo, hi].
func (s *seqSet) addRun(lo, hi uint64) {
	// Runs [i, j) touch or overlap [lo, hi] and collapse into one.
	i := 0
	if lo > 0 {
		i = s.search(lo - 1)
	}
	j := i
	for j < len(s.runs) && (hi == ^uint64(0) || s.runs[j].lo <= hi+1) {
		j++
	}
	if i < j {
		lo = min(lo, s.runs[i].lo)
		hi = max(hi, s.runs[j-1].hi)
		s.runs[i] = seqRun{lo, hi}
		s.runs = append(s.runs[:i+1], s.runs[j:]...)
		return
	}
	s.runs = append(s.runs, seqRun{})
	copy(s.runs[i+1:], s.runs[i:])
	s.runs[i] = seqRun{lo, hi}
}

// max returns the largest number in the set, 0 when empty.
func (s *seqSet) max() uint64 {
	if len(s.runs) == 0 {
		return 0
	}
	return s.runs[len(s.runs)-1].hi
}

// deliveredSets answers "has this site TO-released that message?" for
// every message it ever released, in a handful of words per origin: the
// memory of a message that outlives its slot in the live table.
type deliveredSets map[transport.NodeID]*seqSet

func (d deliveredSets) has(id MsgID) bool {
	s := d[id.Origin]
	return s != nil && s.has(id.Seq)
}

func (d deliveredSets) of(origin transport.NodeID) *seqSet {
	s := d[origin]
	if s == nil {
		s = &seqSet{}
		d[origin] = s
	}
	return s
}

func (d deliveredSets) add(id MsgID) { d.of(id.Origin).add(id.Seq) }

// ranges flattens the sets into their wire form, origins ascending.
func (d deliveredSets) ranges() []SeqRange {
	origins := make([]transport.NodeID, 0, len(d))
	for o := range d {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	var out []SeqRange
	for _, o := range origins {
		for _, r := range d[o].runs {
			out = append(out, SeqRange{Origin: o, Lo: r.lo, Hi: r.hi})
		}
	}
	return out
}
