package storage

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestLoadAndGet(t *testing.T) {
	s := NewStore()
	s.Load("p", "k", Int64Value(42))
	v, ok := s.Get("p", "k")
	if !ok || ValueInt64(v) != 42 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := s.Get("p", "missing"); ok {
		t.Fatal("missing key found")
	}
	if _, ok := s.Get("nopart", "k"); ok {
		t.Fatal("missing partition found")
	}
}

func TestBufferedCommitVisibility(t *testing.T) {
	s := NewStore()
	tx, err := s.Begin("p", Buffered)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("k", StringValue("v1")); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes invisible outside the transaction.
	if _, ok := s.Get("p", "k"); ok {
		t.Fatal("uncommitted write visible")
	}
	// But visible to the transaction itself.
	v, ok := tx.Read("k")
	if !ok || ValueString(v) != "v1" {
		t.Fatalf("own read = %q,%v", v, ok)
	}
	if err := tx.Commit(1); err != nil {
		t.Fatal(err)
	}
	v, ok = s.Get("p", "k")
	if !ok || ValueString(v) != "v1" {
		t.Fatalf("after commit = %q,%v", v, ok)
	}
}

func TestBufferedAbortDiscards(t *testing.T) {
	s := NewStore()
	s.Load("p", "k", StringValue("orig"))
	tx, _ := s.Begin("p", Buffered)
	_ = tx.Write("k", StringValue("changed"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("p", "k")
	if ValueString(v) != "orig" {
		t.Fatalf("abort leaked write: %q", v)
	}
}

func TestPartitionExclusion(t *testing.T) {
	s := NewStore()
	tx1, err := s.Begin("p", Buffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin("p", Buffered); !errors.Is(err, ErrPartitionBusy) {
		t.Fatalf("second Begin = %v, want ErrPartitionBusy", err)
	}
	// A different partition is fine.
	if _, err := s.Begin("q", Buffered); err != nil {
		t.Fatal(err)
	}
	_ = tx1.Abort()
	if _, err := s.Begin("p", Buffered); err != nil {
		t.Fatal(err)
	}
}

func TestTxnDoneErrors(t *testing.T) {
	s := NewStore()
	tx, _ := s.Begin("p", Buffered)
	_ = tx.Commit(1)
	if err := tx.Write("k", nil); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Write after commit = %v", err)
	}
	if err := tx.Commit(2); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit = %v", err)
	}
}

func TestCommitIndexMustAdvance(t *testing.T) {
	s := NewStore()
	tx, _ := s.Begin("p", Buffered)
	_ = tx.Write("k", StringValue("a"))
	if err := tx.Commit(5); err != nil {
		t.Fatal(err)
	}
	tx2, _ := s.Begin("p", Buffered)
	_ = tx2.Write("k", StringValue("b"))
	if err := tx2.Commit(5); err == nil {
		t.Fatal("non-advancing commit index accepted")
	}
}

func TestSnapshotReadPicksLatestAtOrBelow(t *testing.T) {
	s := NewStore()
	for i, val := range []string{"v1", "v3", "v7"} {
		tx, _ := s.Begin("p", Buffered)
		_ = tx.Write("k", StringValue(val))
		idx := []int64{1, 3, 7}[i]
		if err := tx.Commit(idx); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		max  int64
		want string
		ok   bool
	}{
		{0, "", false},
		{1, "v1", true},
		{2, "v1", true},
		{3, "v3", true},
		{6, "v3", true},
		{7, "v7", true},
		{100, "v7", true},
	}
	for _, tc := range cases {
		v, ok := s.SnapshotRead("p", "k", tc.max)
		if ok != tc.ok || (ok && ValueString(v) != tc.want) {
			t.Fatalf("SnapshotRead(max=%d) = %q,%v; want %q,%v", tc.max, v, ok, tc.want, tc.ok)
		}
	}
}

func TestSnapshotUnaffectedByLaterCommits(t *testing.T) {
	s := NewStore()
	tx, _ := s.Begin("p", Buffered)
	_ = tx.Write("k", Int64Value(1))
	_ = tx.Commit(1)
	before, _ := s.SnapshotRead("p", "k", 1)
	tx2, _ := s.Begin("p", Buffered)
	_ = tx2.Write("k", Int64Value(2))
	_ = tx2.Commit(2)
	after, _ := s.SnapshotRead("p", "k", 1)
	if ValueInt64(before) != 1 || ValueInt64(after) != 1 {
		t.Fatalf("snapshot drifted: before=%d after=%d", ValueInt64(before), ValueInt64(after))
	}
}

func TestLastCommittedTracksPerPartition(t *testing.T) {
	s := NewStore()
	tx, _ := s.Begin("a", Buffered)
	_ = tx.Write("k", nil)
	_ = tx.Commit(4)
	if s.LastCommitted("a") != 4 {
		t.Fatalf("LastCommitted(a) = %d", s.LastCommitted("a"))
	}
	if s.LastCommitted("b") != 0 {
		t.Fatalf("LastCommitted(b) = %d", s.LastCommitted("b"))
	}
}

func TestReadAndWriteSets(t *testing.T) {
	s := NewStore()
	tx, _ := s.Begin("p", Buffered)
	_, _ = tx.Read("r1")
	_ = tx.Write("w1", nil)
	_, _ = tx.Read("r2")
	_ = tx.Write("w1", nil)
	rs, ws := tx.ReadSet(), tx.WriteSet()
	if len(rs) != 2 || rs[0] != "r1" || rs[1] != "r2" {
		t.Fatalf("readset = %v", rs)
	}
	if len(ws) != 2 || ws[0] != "w1" || ws[1] != "w1" {
		t.Fatalf("writeset = %v", ws)
	}
	_ = tx.Abort()
}

func TestDigestDetectsDivergence(t *testing.T) {
	a, b := NewStore(), NewStore()
	a.Load("p", "k", Int64Value(1))
	b.Load("p", "k", Int64Value(1))
	if a.Digest() != b.Digest() {
		t.Fatal("identical stores digest differently")
	}
	b.Load("p", "k", Int64Value(2))
	if a.Digest() == b.Digest() {
		t.Fatal("divergent stores digest equal")
	}
}

func TestVacuumKeepsSnapshotHorizon(t *testing.T) {
	s := NewStore()
	for i := int64(1); i <= 10; i++ {
		tx, _ := s.Begin("p", Buffered)
		_ = tx.Write("k", Int64Value(i))
		_ = tx.Commit(i)
	}
	before := s.VersionCount()
	removed := s.Prune(5)
	if removed == 0 || s.VersionCount() != before-removed {
		t.Fatalf("prune removed %d, count %d (before %d)", removed, s.VersionCount(), before)
	}
	// Snapshot at the horizon still answers correctly.
	v, ok := s.SnapshotRead("p", "k", 5)
	if !ok || ValueInt64(v) != 5 {
		t.Fatalf("snapshot at horizon = %v,%v", ValueInt64(v), ok)
	}
	// Older snapshots may be gone (that is the contract).
	if _, ok := s.SnapshotRead("p", "k", 3); ok {
		t.Fatal("pre-horizon version survived prune")
	}
}

func TestKeysAndPartitionsSorted(t *testing.T) {
	s := NewStore()
	s.Load("b", "z", nil)
	s.Load("b", "a", nil)
	s.Load("a", "m", nil)
	parts := s.Partitions()
	if len(parts) != 2 || parts[0] != "a" || parts[1] != "b" {
		t.Fatalf("partitions = %v", parts)
	}
	keys := s.Keys("b")
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "z" {
		t.Fatalf("keys = %v", keys)
	}
}

// TestSeedAllocBudget holds what seeding a fresh store costs: every site
// of a cluster seeds its full copy before it answers (the benchmark: 8
// classes × 1 024 keys of 136 bytes). Until a partition is read, Load
// writes into its base map in place — per key the value's copy, the
// entry, its state and the chain's two columns, plus the map's growth —
// and not through the overflow, its folds and its deletes, which Load
// takes after the first read at 8.6 allocations and 693 bytes a key.
func TestSeedAllocBudget(t *testing.T) {
	const parts, keys, stores = 8, 1024, 3
	const maxMallocs, maxBytes = 6, 360
	names := make([]Partition, parts)
	for i := range names {
		names[i] = Partition(fmt.Sprintf("c%d", i))
	}
	keyNames := make([]Key, keys)
	for i := range keyNames {
		keyNames[i] = Key(fmt.Sprintf("k%04d", i))
	}
	val := make(Value, 136)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range stores {
		s := NewStore()
		for _, p := range names {
			for _, k := range keyNames {
				s.Load(p, k, val)
			}
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(stores * parts * keys)
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("per seeded key: %.2f allocations, %.0f bytes", mallocs, bytes)
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Errorf("seeding allocates %.2f objects and %.0f bytes a key, budget %d and %d",
			mallocs, bytes, maxMallocs, maxBytes)
	}
}

func TestValueEncodingHelpers(t *testing.T) {
	if ValueInt64(Int64Value(-12345)) != -12345 {
		t.Fatal("int64 round trip failed")
	}
	if ValueInt64(nil) != 0 {
		t.Fatal("nil decode != 0")
	}
	if ValueString(StringValue("hi")) != "hi" {
		t.Fatal("string round trip failed")
	}
}

func TestQuickVersionChainsAscend(t *testing.T) {
	f := func(vals []int16) bool {
		s := NewStore()
		idx := int64(0)
		for _, v := range vals {
			idx++
			tx, err := s.Begin("p", Buffered)
			if err != nil {
				return false
			}
			_ = tx.Write("k", Int64Value(int64(v)))
			if err := tx.Commit(idx); err != nil {
				return false
			}
		}
		// Every snapshot index returns the exact value committed at or
		// before it.
		for i := int64(1); i <= idx; i++ {
			v, ok := s.SnapshotRead("p", "k", i)
			if !ok || ValueInt64(v) != int64(vals[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStoreMatchesModel runs random sequences of committed and
// aborted transactions against a plain map. Afterwards Get, Keys and
// SnapshotRead at every committed index agree with the model: an aborted
// transaction leaves no value, no key and no version behind, and the last
// write of a key within a transaction is the one that commits.
func TestQuickStoreMatchesModel(t *testing.T) {
	type op struct {
		Keys [2]byte // written in this order: Val, then -Val
		Val  int16
	}
	f := func(ops []op, abortMask uint8) bool {
		s := NewStore()
		model := map[Key]int64{}
		var snaps []map[Key]int64 // snaps[i]: the model after commit i+1
		for i, o := range ops {
			tx, err := s.Begin("p", Buffered)
			if err != nil {
				return false
			}
			ka, kb := Key([]byte{'k', '0' + o.Keys[0]%4}), Key([]byte{'k', '0' + o.Keys[1]%4})
			_ = tx.Write(ka, Int64Value(int64(o.Val)))
			_ = tx.Write(kb, Int64Value(-int64(o.Val)))
			if (abortMask>>(uint(i)%8))&1 == 1 {
				if tx.Abort() != nil {
					return false
				}
				continue
			}
			if tx.Commit(int64(len(snaps)+1)) != nil {
				return false
			}
			model[ka] = int64(o.Val)
			model[kb] = -int64(o.Val)
			snaps = append(snaps, maps.Clone(model))
		}
		keys := slices.Sorted(maps.Keys(model))
		if !slices.Equal(s.Keys("p"), keys) {
			return false
		}
		for _, k := range keys {
			if v, ok := s.Get("p", k); !ok || ValueInt64(v) != model[k] {
				return false
			}
		}
		for i, snap := range snaps {
			for _, k := range keys {
				v, ok := s.SnapshotRead("p", k, int64(i+1))
				want, exists := snap[k]
				if ok != exists || ok && ValueInt64(v) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
