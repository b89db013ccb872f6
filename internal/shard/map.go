// Package shard scales the single replicated database of the paper out
// horizontally: the conflict-class namespace is partitioned across many
// independent OTP groups ("shards"), each running its own OPT-ABcast,
// scheduler and durability stack. Classes are disjoint by construction
// (Section 2.3), so a transaction whose classes all map to one shard is
// simply that shard's problem — the paper's protocol applies unchanged
// and shards never coordinate for it.
//
// Transactions spanning shards are ordered by a two-phase protocol built
// from ordinary transactions (see Hub and Coordinator): a prepare
// transaction per touched shard, holding exactly the cross-transaction's
// classes, and a decide transaction at a designated home shard whose
// first-wins record is the durable commit point.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"otpdb/internal/sproc"
)

// vnodesPerShard is the number of ring positions each shard occupies.
// 64 keeps the assignment balanced within a few percent for realistic
// class counts while the ring stays small enough to rebuild on Pin.
const vnodesPerShard = 64

// Map assigns conflict classes to shards: consistent hashing over a
// virtual-node ring, overridden by explicit pins. The version increments
// on every pin so routers can detect a stale map. Maps must be identical
// at every process of a deployment (same shard count, same pins, applied
// in the same order) — the assignment is deterministic given those.
type Map struct {
	mu      sync.RWMutex
	shards  int
	version uint64
	pins    map[sproc.ClassID]int
	ring    []ringEntry // sorted by hash
}

type ringEntry struct {
	hash  uint64
	shard int
}

// NewMap builds a map over n shards (n >= 1).
func NewMap(n int) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: map needs at least one shard, got %d", n)
	}
	m := &Map{shards: n, pins: make(map[sproc.ClassID]int)}
	m.ring = make([]ringEntry, 0, n*vnodesPerShard)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			m.ring = append(m.ring, ringEntry{hash: hash64(fmt.Sprintf("shard-%d-vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool { return m.ring[i].hash < m.ring[j].hash })
	return m, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Shards reports the shard count.
func (m *Map) Shards() int { return m.shards }

// Version reports the pin revision; it increments on every Pin.
func (m *Map) Version() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// Pin forces a class onto a shard, overriding the hash assignment.
func (m *Map) Pin(class sproc.ClassID, shard int) error {
	if shard < 0 || shard >= m.shards {
		return fmt.Errorf("shard: pin %q to %d out of range [0,%d)", class, shard, m.shards)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pins[class] = shard
	m.version++
	return nil
}

// Locate returns the shard owning a class. Reserved classes (a "__"
// prefix: group membership, the cross-shard coordination class) live on
// shard 0 by convention so every deployment agrees without pinning them.
func (m *Map) Locate(class sproc.ClassID) int {
	if strings.HasPrefix(string(class), "__") {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if s, ok := m.pins[class]; ok {
		return s
	}
	if m.shards == 1 {
		return 0
	}
	h := hash64(string(class))
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0
	}
	return m.ring[i].shard
}

// Split groups a class set by owning shard. The returned map has one
// entry per touched shard, each holding that shard's classes in input
// order; len(result) == 1 means the transaction is single-shard.
func (m *Map) Split(classes []sproc.ClassID) map[int][]sproc.ClassID {
	out := make(map[int][]sproc.ClassID)
	for _, c := range classes {
		s := m.Locate(c)
		out[s] = append(out[s], c)
	}
	return out
}

// single reports the one shard owning every class of a set, or false when
// the set spans shards — Split's verdict without building the groups.
func (m *Map) single(classes []sproc.ClassID) (int, bool) {
	g := 0
	for i, c := range classes {
		s := m.Locate(c)
		if i > 0 && s != g {
			return 0, false
		}
		g = s
	}
	return g, true
}
