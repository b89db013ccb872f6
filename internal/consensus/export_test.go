package consensus

// SetHorizon lowers the decision horizon of an engine that has not been
// started.
func (e *Engine) SetHorizon(n uint64) { e.horizon = n }

// Sizes is how much per-instance state an engine holds.
type Sizes struct {
	Instances int    // undecided ones and decisions in [Floor, Top]
	Active    int    // proposed here, undecided
	Floor     uint64 // nothing is held below it
	Top       uint64 // highest decided instance
}

// SizesStopped reports a stopped engine's state sizes. It waits for the
// engine goroutine to exit, which is what makes reading its state safe.
func (e *Engine) SizesStopped() Sizes {
	<-e.done
	s := Sizes{Instances: len(e.instances), Active: len(e.active), Floor: e.floor, Top: e.top}
	for _, c := range e.ring {
		for _, d := range c {
			if d.tag > e.floor && d.tag-1 <= e.top {
				s.Instances++
			}
		}
	}
	return s
}
