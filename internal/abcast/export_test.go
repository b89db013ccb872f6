package abcast

// Sizes is how much per-message state an engine holds.
type Sizes struct {
	Live       int // messages between first sight and TO release
	Undecided  int
	PendingTO  int
	Ring       int // retained definitive entries
	RingChunks int // ring chunks allocated
	Runs       int // intervals over all origins' delivered sets
	FreeSlots  int
}

// SizesStopped reports a stopped engine's state sizes. It waits for the
// engine goroutine to exit, which is what makes reading its state safe.
func (o *Optimistic) SizesStopped() Sizes {
	<-o.done
	s := Sizes{
		Live:      len(o.live),
		Undecided: len(o.undecided),
		PendingTO: len(o.pendingTO) - o.toHead,
		Ring:      o.ring.len(),
		FreeSlots: len(o.free),
	}
	for _, c := range o.ring.chunks {
		if c != nil {
			s.RingChunks++
		}
	}
	for _, set := range o.delivered {
		s.Runs += len(set.runs)
	}
	return s
}
