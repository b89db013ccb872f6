package abcast

// defChunk is the number of entries the definitive ring grows by.
const defChunk = 1024

// defRing is the retained definitive history: the last cap entries, as
// values, at slot Seq mod cap. Positions are assigned consecutively, so
// the retained window is one interval [lo, hi] and a position is found by
// arithmetic; a new entry overwrites the one cap positions before it. The
// slots are allocated a chunk at a time as the history first reaches them
// — an engine that orders a hundred messages holds one chunk, not cap.
type defRing struct {
	cap    uint64
	chunks [][]DefEntry
	lo, hi uint64 // retained positions; hi == 0 while empty
}

func (r *defRing) len() int {
	if r.hi == 0 {
		return 0
	}
	return int(r.hi - r.lo + 1)
}

// at returns the retained entry at position seq, nil when it is not (or no
// longer) retained. The pointer is good until the next put.
func (r *defRing) at(seq uint64) *DefEntry {
	if r.hi == 0 || seq < r.lo || seq > r.hi {
		return nil
	}
	i := seq % r.cap
	return &r.chunks[i/defChunk][i%defChunk]
}

// put retains ent, which continues the history at hi+1. An entry anywhere
// else (there is none in the protocol: stage decisions and a join backlog
// both number consecutively) starts the history over from there.
func (r *defRing) put(ent DefEntry) {
	if r.cap == 0 {
		return
	}
	if r.hi == 0 || ent.Seq != r.hi+1 {
		r.lo = ent.Seq
	}
	r.hi = ent.Seq
	if r.hi-r.lo >= r.cap {
		r.lo = r.hi - r.cap + 1
	}
	if r.chunks == nil {
		r.chunks = make([][]DefEntry, (r.cap+defChunk-1)/defChunk)
	}
	i := ent.Seq % r.cap
	c := i / defChunk
	if r.chunks[c] == nil {
		r.chunks[c] = make([]DefEntry, min(defChunk, r.cap-c*defChunk))
	}
	r.chunks[c][i%defChunk] = ent
}
