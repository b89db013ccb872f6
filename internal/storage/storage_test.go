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

// seedData is the benchmark's seed: 8 classes × 1 024 keys of 136 bytes.
func seedData() (parts []Partition, keys []Key, val Value) {
	for i := range 8 {
		parts = append(parts, Partition(fmt.Sprintf("c%d", i)))
	}
	for i := range 1024 {
		keys = append(keys, Key(fmt.Sprintf("k%04d", i)))
	}
	return parts, keys, make(Value, 136)
}

// seedImage is the seed as one checkpoint at index 0.
func seedImage() *Checkpoint {
	parts, keys, val := seedData()
	ck := &Checkpoint{}
	for _, p := range parts {
		pc := PartitionCheckpoint{Partition: p}
		for _, k := range keys {
			pc.Keys = append(pc.Keys, KeyVersion{Key: k, Value: val.clone()})
		}
		ck.Partitions = append(ck.Partitions, pc)
	}
	return ck
}

// allocsPerKey runs fill and reports what it allocated per key, in
// objects and bytes.
func allocsPerKey(keys int, fill func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(keys),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(keys)
}

// TestSeedAllocBudget holds what seeding a fresh store key by key costs
// (Load: the bench's hand-assembled stack and the membership seed). Until
// a partition is read, Load writes into its base map in place: per key
// the value's copy and one block holding the entry, its state and the
// chain's two columns, plus 0.03 of the base map's growth — not the
// overflow, its folds and its deletes, which Load takes after the first
// read at 8.6 allocations and 693 bytes a key.
func TestSeedAllocBudget(t *testing.T) {
	const stores = 3
	const maxMallocs, maxBytes = 2.05, 360
	parts, keys, val := seedData()
	mallocs, bytes := allocsPerKey(stores*len(parts)*len(keys), func() {
		for range stores {
			s := NewStore()
			for _, p := range parts {
				for _, k := range keys {
					s.Load(p, k, val)
				}
			}
		}
	})
	t.Logf("per seeded key: %.2f allocations, %.0f bytes", mallocs, bytes)
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Errorf("seeding allocates %.2f objects and %.0f bytes a key, budget %.2f and %d",
			mallocs, bytes, maxMallocs, maxBytes)
	}
}

// TestSeedImageAllocBudget holds what a cluster's cold start costs per
// site: three fresh stores install one seed image. A partition nobody has
// read and that holds no key takes one base map sized to its keys and one
// slab of key blocks, and shares the image's values.
func TestSeedImageAllocBudget(t *testing.T) {
	const stores = 3
	const maxMallocs, maxBytes = 0.05, 160
	img := seedImage()
	n := 0
	for _, pc := range img.Partitions {
		n += len(pc.Keys)
	}
	mallocs, bytes := allocsPerKey(stores*n, func() {
		for range stores {
			NewStore().InstallCheckpoint(img)
		}
	})
	t.Logf("per installed key: %.3f allocations, %.0f bytes", mallocs, bytes)
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Errorf("installing the image allocates %.3f objects and %.0f bytes a key, budget %.2f and %d",
			mallocs, bytes, maxMallocs, maxBytes)
	}
}

// TestInstalledImageThenCommit installs an image into two stores and
// commits twice to one key of one of them: every other key's chain still
// holds one version with the image's own bytes, in both stores, and the
// written key still reads its seed at index 0. A slab neighbour's column
// or a shared value written through would show here.
func TestInstalledImageThenCommit(t *testing.T) {
	img := seedImage()
	pc := img.Partitions[0]
	s, other := NewStore(), NewStore()
	s.InstallCheckpoint(img)
	other.InstallCheckpoint(img)
	written := pc.Keys[len(pc.Keys)/2].Key
	for i := int64(1); i <= 2; i++ {
		tx, err := s.Begin(pc.Partition, Buffered)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(written, Int64Value(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*Store{s, other} {
		pt := st.lookup(pc.Partition)
		for _, kv := range pc.Keys {
			if kv.Key == written && st == s {
				continue
			}
			c := pt.getEntry(kv.Key).load()
			if len(c.idx) != 1 || c.idx[0] != 0 || &c.vals[0][0] != &kv.Value[0] {
				t.Fatalf("%s: chain %v, want one version at 0 holding the image's bytes", kv.Key, c.idx)
			}
		}
	}
	if v, ok := s.SnapshotRead(pc.Partition, written, 0); !ok || len(v) != 136 || ValueInt64(v) != 0 {
		t.Fatalf("snapshot at 0 of %s = %v, %v; want its seed", written, v, ok)
	}
	if v, _ := s.Get(pc.Partition, written); ValueInt64(v) != 2 {
		t.Fatalf("%s = %d after two commits, want 2", written, ValueInt64(v))
	}
	if n := s.VersionCount(); n != len(img.Partitions)*len(pc.Keys)+2 {
		t.Fatalf("VersionCount = %d", n)
	}
}

// TestInstallImageLastListedWins: a key a checkpoint lists twice takes
// its last version, into a fresh partition as into one already holding
// keys, and nil reads as absent.
func TestInstallImageLastListedWins(t *testing.T) {
	ck := &Checkpoint{Partitions: []PartitionCheckpoint{{Partition: "p", Keys: []KeyVersion{
		{Key: "a", Value: Int64Value(1)}, {Key: "gone", Value: nil}, {Key: "a", Value: Int64Value(2)},
	}}}}
	fresh, held := NewStore(), NewStore()
	held.Load("p", "b", Int64Value(3))
	for name, s := range map[string]*Store{"fresh": fresh, "held": held} {
		s.InstallCheckpoint(ck)
		if v, ok := s.Get("p", "a"); !ok || ValueInt64(v) != 2 {
			t.Fatalf("%s: a = %d, %v; want 2", name, ValueInt64(v), ok)
		}
		if _, ok := s.Get("p", "gone"); ok {
			t.Fatalf("%s: a nil version reads as present", name)
		}
		if s.PruneWatermark("p") != 0 || s.LastCommitted("p") != 0 {
			t.Fatalf("%s: an image at 0 moved the watermark or the committed floor", name)
		}
	}
	if v, ok := held.Get("p", "b"); !ok || ValueInt64(v) != 3 {
		t.Fatalf("held: b = %d, %v; want 3", ValueInt64(v), ok)
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
