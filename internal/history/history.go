// Package history records the execution histories of all replicas and
// checks 1-copy-serializability (Theorem 4.2 and the Section 5 query
// rules) offline.
//
// The check has two parts:
//
//  1. Replica agreement: every site commits the same update transactions
//     with the same definitive indexes, classes and write sets, and
//     per-class commit orders are prefix-compatible across sites
//     (Lemma 4.1). A site that crashed and was rebuilt (Rebuilt) is a new
//     incarnation: it may commit a prefix its earlier life committed, in
//     order and with the same reads and writes.
//  2. Serializability of the union history: a conflict graph is built
//     with one node per logical update transaction (the "1-copy" view)
//     and one node per query execution. Within a class the definitive
//     order chains the updates; each versioned query read adds a
//     writer→query edge and a query→overwriter edge. The union history
//     is serializable iff this graph is acyclic.
//
// The dirty-query counterexample of Section 5 (a query at site N ordering
// T2 before T5 while a query at N' orders T5 before T2) shows up as a
// cycle through the two query nodes and is caught by part 2.
package history

import (
	"fmt"
	"sort"
	"sync"

	"otpdb/internal/abcast"
	"otpdb/internal/db"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// UpdateObs is one committed update transaction observed at one site.
type UpdateObs struct {
	Site    transport.NodeID
	Life    int // the site's incarnation: how often it had been rebuilt
	ID      abcast.MsgID
	Classes []sproc.ClassID
	TOIndex int64
	Reads   []storage.ClassKey
	Writes  []storage.ClassKey
}

// QueryObs is one completed query at one site.
type QueryObs struct {
	Site       transport.NodeID
	QueryIndex int64
	Reads      []db.QueryRead
}

// Recorder collects observations from any number of replicas.
type Recorder struct {
	mu      sync.Mutex
	updates []UpdateObs
	queries []QueryObs
	lives   map[transport.NodeID]int
}

var _ db.HistorySink = (*Recorder)(nil)

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{lives: make(map[transport.NodeID]int)} }

// Rebuilt starts a new incarnation of site: its previous stack has stopped
// and the one about to start joins from a peer's state, so it commits
// again whatever that state does not cover.
func (r *Recorder) Rebuilt(site transport.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lives[site]++
}

// RecordUpdate implements db.HistorySink.
func (r *Recorder) RecordUpdate(site transport.NodeID, id abcast.MsgID, classes []sproc.ClassID,
	toIndex int64, readSet, writeSet []storage.ClassKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates = append(r.updates, UpdateObs{
		Site:    site,
		Life:    r.lives[site],
		ID:      id,
		Classes: classes,
		TOIndex: toIndex,
		Reads:   readSet,
		Writes:  writeSet,
	})
}

// RecordQuery implements db.HistorySink.
func (r *Recorder) RecordQuery(site transport.NodeID, queryIndex int64, reads []db.QueryRead) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries = append(r.queries, QueryObs{Site: site, QueryIndex: queryIndex, Reads: reads})
}

// Counts reports how many update commits and queries were recorded.
func (r *Recorder) Counts() (updates, queries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.updates), len(r.queries)
}

// logicalUpdate is the 1-copy view of an update transaction.
type logicalUpdate struct {
	id      abcast.MsgID
	classes map[sproc.ClassID]bool
	writes  map[storage.ClassKey]bool
}

// Check validates replica agreement and serializability of the union
// history. A nil result means the recorded execution is
// 1-copy-serializable.
func (r *Recorder) Check() error {
	r.mu.Lock()
	updates := make([]UpdateObs, len(r.updates))
	copy(updates, r.updates)
	queries := make([]QueryObs, len(r.queries))
	copy(queries, r.queries)
	r.mu.Unlock()

	logical, err := mergeUpdates(updates)
	if err != nil {
		return err
	}
	return checkGraph(logical, queries)
}

// sameKeys reports whether a and b hold the same keys.
func sameKeys(a, b []storage.ClassKey) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[storage.ClassKey]bool, len(a))
	for _, k := range a {
		in[k] = true
	}
	for _, k := range b {
		if !in[k] {
			return false
		}
	}
	return true
}

// mergeUpdates folds per-site observations into logical transactions,
// verifying agreement on id, class and write set per definitive index.
func mergeUpdates(updates []UpdateObs) (map[int64]*logicalUpdate, error) {
	type siteLife struct {
		site transport.NodeID
		life int
	}
	type siteIndex struct {
		site transport.NodeID
		idx  int64
	}
	logical := make(map[int64]*logicalUpdate)
	perSiteClass := make(map[siteLife]map[sproc.ClassID][]int64)
	// A site's first commit of an index. A second one in the same
	// incarnation fails the Lemma 4.1 check below.
	earlier := make(map[siteIndex]*UpdateObs)
	for i := range updates {
		u := &updates[i]
		if prev := earlier[siteIndex{u.Site, u.TOIndex}]; prev == nil {
			earlier[siteIndex{u.Site, u.TOIndex}] = u
		} else if !sameKeys(prev.Reads, u.Reads) || !sameKeys(prev.Writes, u.Writes) {
			return nil, fmt.Errorf(
				"history: site %v committed index %d with reads %v writes %v, and after a rebuild with reads %v writes %v",
				u.Site, u.TOIndex, prev.Reads, prev.Writes, u.Reads, u.Writes)
		}
		lu, ok := logical[u.TOIndex]
		if !ok {
			writes := make(map[storage.ClassKey]bool, len(u.Writes))
			for _, k := range u.Writes {
				writes[k] = true
			}
			classes := make(map[sproc.ClassID]bool, len(u.Classes))
			for _, c := range u.Classes {
				classes[c] = true
			}
			logical[u.TOIndex] = &logicalUpdate{id: u.ID, classes: classes, writes: writes}
		} else {
			if lu.id != u.ID || len(lu.classes) != len(u.Classes) {
				return nil, fmt.Errorf(
					"history: index %d is %v at one site and %v at %v",
					u.TOIndex, lu.id, u.ID, u.Site)
			}
			for _, c := range u.Classes {
				if !lu.classes[c] {
					return nil, fmt.Errorf(
						"history: %v declares class %s at %v but not elsewhere",
						u.ID, c, u.Site)
				}
			}
			for _, k := range u.Writes {
				if !lu.writes[k] {
					return nil, fmt.Errorf(
						"history: %v wrote %v at %v but not elsewhere (non-deterministic procedure?)",
						u.ID, k, u.Site)
				}
			}
		}
		bySite, ok := perSiteClass[siteLife{u.Site, u.Life}]
		if !ok {
			bySite = make(map[sproc.ClassID][]int64)
			perSiteClass[siteLife{u.Site, u.Life}] = bySite
		}
		for _, c := range u.Classes {
			bySite[c] = append(bySite[c], u.TOIndex)
		}
	}
	// Lemma 4.1: per class, each incarnation's commit order is ascending in
	// the definitive index (observations arrive in commit order).
	for sl, bySite := range perSiteClass {
		for class, seq := range bySite {
			for i := 1; i < len(seq); i++ {
				if seq[i] <= seq[i-1] {
					return nil, fmt.Errorf(
						"history: site %v committed class %s out of definitive order (%d after %d)",
						sl.site, class, seq[i], seq[i-1])
				}
			}
		}
	}
	return logical, nil
}

// checkGraph builds the union conflict graph and reports any cycle.
func checkGraph(logical map[int64]*logicalUpdate, queries []QueryObs) error {
	// Node numbering: updates by definitive index, then queries.
	idxs := make([]int64, 0, len(logical))
	for idx := range logical {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	node := make(map[int64]int, len(idxs))
	for i, idx := range idxs {
		node[idx] = i
	}
	n := len(idxs) + len(queries)
	adj := make([][]int, n)
	addEdge := func(a, b int) { adj[a] = append(adj[a], b) }

	// Update-update edges: the definitive order within each class (a
	// multi-class transaction chains in every class it declares).
	lastInClass := make(map[sproc.ClassID]int)
	for _, idx := range idxs {
		lu := logical[idx]
		for class := range lu.classes {
			if prev, ok := lastInClass[class]; ok && prev != node[idx] {
				addEdge(prev, node[idx])
			}
			lastInClass[class] = node[idx]
		}
	}

	// writersOf(class/key) in ascending definitive order.
	writers := make(map[storage.ClassKey][]int64)
	for _, idx := range idxs {
		lu := logical[idx]
		for k := range lu.writes {
			writers[k] = append(writers[k], idx)
		}
	}

	// Query edges.
	for qi, q := range queries {
		qNode := len(idxs) + qi
		for _, read := range q.Reads {
			ck := storage.ClassKey{Partition: storage.Partition(read.Class), Key: read.Key}
			if read.Version > 0 {
				wNode, ok := node[read.Version]
				if !ok {
					return fmt.Errorf(
						"history: query at site %v read version %d of %s/%s, but no such commit was recorded",
						q.Site, read.Version, read.Class, read.Key)
				}
				if !logical[read.Version].writes[ck] {
					return fmt.Errorf(
						"history: query read version %d of %s/%s, but T_%d did not write it",
						read.Version, read.Class, read.Key, read.Version)
				}
				addEdge(wNode, qNode)
			}
			// Edge to the earliest overwriter after the observed version.
			ws := writers[ck]
			i := sort.Search(len(ws), func(i int) bool { return ws[i] > read.Version })
			if i < len(ws) {
				addEdge(qNode, node[ws[i]])
			}
		}
	}

	if cycle := findCycle(adj); cycle != nil {
		return fmt.Errorf("history: union history not serializable: conflict cycle %v (nodes 0..%d are updates by definitive order, the rest queries)",
			cycle, len(idxs)-1)
	}
	return nil
}

// findCycle returns one cycle as a node list, or nil if the graph is
// acyclic. Iterative DFS with the classic three colors.
func findCycle(adj [][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(adj))
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -1
	}
	for start := range adj {
		if color[start] != white {
			continue
		}
		type frame struct{ node, edge int }
		stack := []frame{{start, 0}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.edge < len(adj[f.node]) {
				next := adj[f.node][f.edge]
				f.edge++
				switch color[next] {
				case white:
					color[next] = gray
					parent[next] = f.node
					stack = append(stack, frame{next, 0})
				case gray:
					// Found a cycle: walk parents from f.node to next.
					cycle := []int{next}
					for at := f.node; at != next && at != -1; at = parent[at] {
						cycle = append(cycle, at)
					}
					cycle = append(cycle, next)
					reverse(cycle)
					return cycle
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
