package db

// SetPruneEvery makes the replica prune its version store every n local
// commits instead of every commitsPerPrune.
func (r *Replica) SetPruneEvery(n int) {
	r.mu.Lock()
	r.pruneEvery = n
	r.mu.Unlock()
}
