package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otpdb/internal/testutil"
)

// TestParallelReadsRacingCommitters drives the lock-free read path
// (Get, SnapshotRead, GetVersioned, LastCommitted) from many goroutines
// while a committer appends versions — run under -race this validates
// the atomic publication protocol. Every version of "k" holds its own
// TO index, so any read can verify it observed an exact snapshot.
func TestParallelReadsRacingCommitters(t *testing.T) {
	const txns = 2000
	s := NewStore()
	s.Load("p", "k", Int64Value(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				last := s.LastCommitted("p")
				at := int64(i) % (last + 1)
				v, idx, ok, err := s.SnapshotReadAt("p", "k", at)
				if err != nil || !ok {
					t.Errorf("snapshot at %d missing (last=%d): %v", at, last, err)
					return
				}
				if idx > at {
					t.Errorf("snapshot at %d returned version %d", at, idx)
					return
				}
				if ValueInt64(v) != idx {
					t.Errorf("version %d holds %d", idx, ValueInt64(v))
					return
				}
				if cur, ok := s.Get("p", "k"); !ok || ValueInt64(cur) < 0 {
					t.Error("Get lost the key")
					return
				}
				reads.Add(1)
			}
		}()
	}

	for i := int64(1); i <= txns; i++ {
		tx, err := s.Begin("p", Buffered)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("k", Int64Value(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	// On a single-CPU box the readers may not have been scheduled yet;
	// give them time to observe the final state before stopping. A
	// timeout is not failure here — the assertion below reports it.
	testutil.Await(5*time.Second, func() bool { return reads.Load() != 0 })
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
}

// TestParallelPartitionsCommitConcurrently verifies the sharding win:
// committers on distinct partitions run in parallel (per-partition
// locking), racing readers across all partitions.
func TestParallelPartitionsCommitConcurrently(t *testing.T) {
	const parts, txns = 8, 500
	s := NewStore()
	for p := 0; p < parts; p++ {
		s.Load(Partition(fmt.Sprintf("p%d", p)), "k", Int64Value(0))
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		part := Partition(fmt.Sprintf("p%d", p))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= txns; i++ {
				tx, err := s.Begin(part, Buffered)
				if err != nil {
					t.Error(err)
					return
				}
				_ = tx.Write("k", Int64Value(i))
				if err := tx.Commit(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				if last := s.LastCommitted(part); last > 0 {
					if _, ok := s.SnapshotRead(part, "k", last); !ok {
						t.Errorf("%s: missing snapshot at %d", part, last)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for p := 0; p < parts; p++ {
		part := Partition(fmt.Sprintf("p%d", p))
		if got := s.LastCommitted(part); got != txns {
			t.Fatalf("%s: lastCommitted = %d, want %d", part, got, txns)
		}
	}
}

// TestManyNewKeysStayReadable drives key creation through the overflow
// map and its geometric merges into the COW base: every created key
// must remain readable (Get, SnapshotRead, Keys) at every stage, racing
// concurrent readers.
func TestManyNewKeysStayReadable(t *testing.T) {
	const keys = 5000
	s := NewStore()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := Key(fmt.Sprintf("k%d", i%keys))
			if v, ok := s.Get("p", k); ok && ValueInt64(v) != int64(i%keys) {
				t.Errorf("%s = %d", k, ValueInt64(v))
				return
			}
		}
	}()
	for i := 0; i < keys; i++ {
		tx, err := s.Begin("p", Buffered)
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Write(Key(fmt.Sprintf("k%d", i)), Int64Value(int64(i)))
		if err := tx.Commit(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := len(s.Keys("p")); got != keys {
		t.Fatalf("Keys() = %d, want %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		k := Key(fmt.Sprintf("k%d", i))
		v, ok := s.Get("p", k)
		if !ok || ValueInt64(v) != int64(i) {
			t.Fatalf("%s = %d,%v", k, ValueInt64(v), ok)
		}
		if _, ok := s.SnapshotRead("p", k, int64(keys)); !ok {
			t.Fatalf("%s missing from snapshot", k)
		}
	}
	if n := s.VersionCount(); n != keys {
		t.Fatalf("VersionCount = %d, want %d", n, keys)
	}
}

// TestLoadRacingFirstReaders drives the boundary of in-place seeding:
// one goroutine Loads keys while readers (Get, SnapshotRead, Keys) start
// partway through and publish the partition. Every key whose Load
// returned before a read is visible to that read, keys loaded after the
// publication are readable, and Keys and VersionCount end exact. Under
// -race it checks that no read overlaps an in-place write. Then one
// checkpoint, installed into a store nobody has read and into one whose
// partitions are published, gives equal digests.
func TestLoadRacingFirstReaders(t *testing.T) {
	const keys = 4096
	key := func(i int) Key { return Key(fmt.Sprintf("k%04d", i)) }
	s := NewStore()
	var loaded atomic.Int64 // keys whose Load has returned
	start, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := int(loaded.Load())
				k := (i*7919 + g) % n
				switch g {
				case 0:
					if v, ok := s.Get("p", key(k)); !ok || ValueInt64(v) != int64(k) {
						t.Errorf("Get %s = %d,%v with %d loaded", key(k), ValueInt64(v), ok, n)
						return
					}
				case 1:
					if v, ok := s.SnapshotRead("p", key(k), 0); !ok || ValueInt64(v) != int64(k) {
						t.Errorf("SnapshotRead %s = %d,%v with %d loaded", key(k), ValueInt64(v), ok, n)
						return
					}
				case 2:
					if got := len(s.Keys("p")); got < n {
						t.Errorf("Keys lists %d with %d loaded", got, n)
						return
					}
				}
			}
		}()
	}
	stopReaders := func() {
		close(stop)
		wg.Wait()
	}
	published := func() bool { return s.lookup("p").published.Load() }
	for i := 0; i < keys; i++ {
		s.Load("p", key(i), Int64Value(int64(i)))
		loaded.Store(int64(i + 1))
		switch i {
		case keys / 4:
			close(start)
		case keys / 2:
			// The second half is loaded into a published partition, however
			// the readers were scheduled.
			if !testutil.Await(5*time.Second, published) {
				stopReaders()
				t.Fatal("no reader published the partition")
			}
		}
	}
	stopReaders()
	for i := 0; i < keys; i++ {
		if v, ok := s.Get("p", key(i)); !ok || ValueInt64(v) != int64(i) {
			t.Fatalf("Get %s = %d,%v", key(i), ValueInt64(v), ok)
		}
	}
	if got := s.Keys("p"); len(got) != keys || got[0] != key(0) || got[keys-1] != key(keys-1) {
		t.Fatalf("Keys lists %d keys, want %d", len(got), keys)
	}
	if n := s.VersionCount(); n != keys {
		t.Fatalf("VersionCount = %d, want %d", n, keys)
	}

	for i := int64(1); i <= 3; i++ {
		tx, _ := s.Begin("p", Buffered)
		_ = tx.Write(key(int(i)), Int64Value(-i))
		if err := tx.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Load("q", "nil", nil)
	ck := s.CheckpointAt(3)
	fresh, read := NewStore(), NewStore()
	for _, pc := range ck.Partitions {
		read.Load(pc.Partition, pc.Keys[0].Key, StringValue("overwritten"))
		read.Keys(pc.Partition)
	}
	fresh.InstallCheckpoint(ck)
	read.InstallCheckpoint(ck)
	for _, pc := range ck.Partitions {
		if fresh.lookup(pc.Partition).published.Load() || !read.lookup(pc.Partition).published.Load() {
			t.Fatalf("%s: want the fresh store unpublished, the read one published", pc.Partition)
		}
	}
	if a, b, want := fresh.Digest(), read.Digest(), s.Digest(); a != want || b != want {
		t.Fatalf("digests: unpublished %x, published %x, source %x", a, b, want)
	}
	if a, b := fresh.VersionCount(), read.VersionCount(); a != keys+1 || b != keys+1 {
		t.Fatalf("VersionCount: unpublished %d, published %d, want %d", a, b, keys+1)
	}
}

// TestInstallImageRacingFirstReaders installs one image into fresh
// stores while readers make the first reads of the same partition.
// Whichever takes the partition first, the image's slab or the per-key
// path after publication, a key read after InstallCheckpoint returned
// holds the image's own bytes, and under -race no read overlaps the
// in-place install.
func TestInstallImageRacingFirstReaders(t *testing.T) {
	img := seedImage()
	pc := img.Partitions[0]
	for round := 0; round < 8; round++ {
		s := NewStore()
		var installed atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					done := installed.Load()
					kv := pc.Keys[(i*7919+g)%len(pc.Keys)]
					v, ok := s.Get(pc.Partition, kv.Key)
					if (done && !ok) || (ok && &v[0] != &kv.Value[0]) {
						t.Errorf("round %d: %s = %v, %v after install %v; want the image's value", round, kv.Key, ok, v, done)
						return
					}
					if done {
						return
					}
				}
			}()
		}
		s.InstallCheckpoint(img)
		installed.Store(true)
		wg.Wait()
		if n := s.VersionCount(); n != len(img.Partitions)*len(pc.Keys) {
			t.Fatalf("round %d: VersionCount = %d", round, n)
		}
	}
}

// TestPruneCorrectness: after Prune(w), reads at or above w still see
// exact snapshots, reads below w fail loudly with ErrSnapshotPruned,
// and the watermark is observable.
func TestPruneCorrectness(t *testing.T) {
	const versions = 20
	s := NewStore()
	for i := int64(1); i <= versions; i++ {
		tx, _ := s.Begin("p", Buffered)
		_ = tx.Write("k", Int64Value(i))
		if err := tx.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	const w = 12
	removed := s.Prune(w)
	if removed != w-1 {
		t.Fatalf("removed %d versions, want %d", removed, w-1)
	}
	if got := s.PruneWatermark("p"); got != w {
		t.Fatalf("watermark = %d, want %d", got, w)
	}
	// Reads at or above the watermark: exact snapshots survive.
	for at := int64(w); at <= versions; at++ {
		v, idx, ok, err := s.SnapshotReadAt("p", "k", at)
		if err != nil || !ok {
			t.Fatalf("read at %d: ok=%v err=%v", at, ok, err)
		}
		if idx != at || ValueInt64(v) != at {
			t.Fatalf("read at %d saw version %d value %d", at, idx, ValueInt64(v))
		}
	}
	// Reads below the watermark fail loudly.
	for at := int64(0); at < w; at++ {
		_, _, _, err := s.SnapshotReadAt("p", "k", at)
		if !errors.Is(err, ErrSnapshotPruned) {
			t.Fatalf("read at %d: err = %v, want ErrSnapshotPruned", at, err)
		}
	}
	// The legacy boolean API reports a plain miss.
	if _, ok := s.SnapshotRead("p", "k", w-1); ok {
		t.Fatal("pruned read succeeded through SnapshotRead")
	}
	// Prune is monotone: a lower horizon does not regress the watermark.
	s.Prune(3)
	if got := s.PruneWatermark("p"); got != w {
		t.Fatalf("watermark regressed to %d", got)
	}
}

// TestPruneKeepsNewestAtOrBelowHorizon: a key whose last write predates
// the horizon keeps exactly that version (it serves reads at the
// horizon).
func TestPruneKeepsNewestAtOrBelowHorizon(t *testing.T) {
	s := NewStore()
	for i := int64(1); i <= 5; i++ {
		tx, _ := s.Begin("p", Buffered)
		_ = tx.Write("k", Int64Value(i))
		_ = tx.Commit(i)
	}
	s.Prune(9)
	v, idx, ok, err := s.SnapshotReadAt("p", "k", 9)
	if err != nil || !ok || idx != 5 || ValueInt64(v) != 5 {
		t.Fatalf("read at horizon: v=%d idx=%d ok=%v err=%v", ValueInt64(v), idx, ok, err)
	}
	if n := s.VersionCount(); n != 1 {
		t.Fatalf("version count = %d, want 1", n)
	}
}

// TestBeginMultiWaitWakesOnCommit: a one-partition BeginMultiWait parks
// while the partition is busy and wakes when the holder commits — no
// polling, no missed wakeup. (TestBeginMultiWaitAcquiresWhenAllFree
// wakes on an abort.)
func TestBeginMultiWaitWakesOnCommit(t *testing.T) {
	s := NewStore()
	tx, err := s.Begin("p", Buffered)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		var mt MultiTxn
		err := s.BeginMultiWait(&mt, []Partition{"p"}, nil)
		if err == nil {
			if v, ok := mt.Read("p", "k"); !ok || ValueInt64(v) != 1 {
				err = fmt.Errorf("woke before the commit was visible: %d,%v", ValueInt64(v), ok)
			}
			_ = mt.Abort()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("BeginMultiWait returned %v while partition busy", err)
	case <-time.After(20 * time.Millisecond):
	}
	_ = tx.Write("k", Int64Value(1))
	if err := tx.Commit(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("BeginMultiWait after commit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BeginMultiWait missed the commit wakeup")
	}
}

// TestBeginMultiWaitAcquiresWhenAllFree: a multi-partition wait parks on
// the busy partition, then atomically acquires the full set.
func TestBeginMultiWaitAcquiresWhenAllFree(t *testing.T) {
	s := NewStore()
	hold, err := s.Begin("b", Buffered)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		var mt MultiTxn
		err := s.BeginMultiWait(&mt, []Partition{"a", "b", "c"}, nil)
		if err == nil {
			err = mt.Abort()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("BeginMultiWait returned %v while b busy", err)
	case <-time.After(20 * time.Millisecond):
	}
	// While the waiter retries, partitions a and c must not stay locked
	// (all-or-nothing acquisition releases them).
	if txa, err := s.Begin("a", Buffered); err != nil {
		t.Fatalf("partition a wedged: %v", err)
	} else {
		_ = txa.Abort()
	}
	if err := hold.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("BeginMultiWait after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BeginMultiWait missed the release wakeup")
	}
}

// TestBeginMultiWaitCancel: cancellation releases partially acquired
// partitions and returns ErrCanceled.
func TestBeginMultiWaitCancel(t *testing.T) {
	s := NewStore()
	hold, err := s.Begin("b", Buffered)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		got <- s.BeginMultiWait(new(MultiTxn), []Partition{"a", "b"}, cancel)
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-got:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not unblock BeginMultiWait")
	}
	_ = hold.Abort()
	// Nothing left locked.
	mt, err := s.BeginMulti([]Partition{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	_ = mt.Abort()
}

// TestSnapshotReadsRacingPrune: readers at or above the advancing
// watermark keep seeing exact snapshots while Prune rewrites chains.
func TestSnapshotReadsRacingPrune(t *testing.T) {
	const versions = 1000
	s := NewStore()
	for i := int64(1); i <= versions; i++ {
		tx, _ := s.Begin("p", Buffered)
		_ = tx.Write("k", Int64Value(i))
		if err := tx.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	var watermark atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := watermark.Load()
				if w == 0 {
					w = 1 // no version exists at index 0 (chain starts at 1)
				}
				at := w + int64(i)%(versions-w+1) // in [w, versions]
				v, idx, ok, err := s.SnapshotReadAt("p", "k", at)
				if err != nil {
					// A racing Prune may have advanced the watermark past
					// our captured w; that read is legitimately refused.
					if !errors.Is(err, ErrSnapshotPruned) {
						t.Errorf("read at %d: %v", at, err)
						return
					}
					continue
				}
				if !ok {
					t.Errorf("read at %d: missing", at)
					return
				}
				want := at
				if want > versions {
					want = versions
				}
				if idx != want || ValueInt64(v) != want {
					t.Errorf("read at %d saw version %d value %d", at, idx, ValueInt64(v))
					return
				}
			}
		}(g)
	}
	for w := int64(1); w <= versions; w += 7 {
		watermark.Store(w)
		s.Prune(w)
	}
	close(stop)
	wg.Wait()
}
