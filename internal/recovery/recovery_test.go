package recovery

import (
	"os"
	"path/filepath"
	"testing"

	"otpdb/internal/storage"
	"otpdb/internal/wal"
)

func write(idx int64, key string, val int64) wal.Record {
	return wal.Record{TOIndex: idx, Writes: []storage.ClassKeyValue{{
		Partition: "p", Key: storage.Key(key), Value: storage.Int64Value(val),
	}}}
}

// segmentFill is the value padding at which about 31 records fill a 4 MiB
// WAL segment, so a test of a hundred commits spans four segments.
const segmentFill = 128 << 10

// padded returns rec with pad zero bytes appended to its one value, which
// still decodes to the same int64.
func padded(rec wal.Record, pad int) wal.Record {
	rec.Writes[0].Value = append(rec.Writes[0].Value, make([]byte, pad)...)
	return rec
}

// buildState commits 1..n into a fresh store and the durability log, each
// value padded by pad bytes.
func buildState(t *testing.T, d *Durability, n int64, pad int) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	for i := int64(1); i <= n; i++ {
		rec := padded(write(i, "k", i), pad)
		if err := d.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		s.InstallCommit(rec.TOIndex, rec.Writes)
	}
	return s
}

func TestRecoverLogOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := buildState(t, d, 100, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Close() }()
	s := storage.NewStore()
	base, err := d2.Recover(s)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if base != 100 {
		t.Fatalf("recovered index = %d, want 100", base)
	}
	if s.Digest() != live.Digest() {
		t.Fatal("recovered state differs from live state")
	}
}

// TestRecoverStopsAtLogHole: non-conflicting commits may append out of
// TOIndex order, so a crash can persist index N+1 without N. Recovery
// must resume at the contiguous frontier below the hole — installing
// the orphan and resuming above it would lose transaction N forever.
func TestRecoverStopsAtLogHole(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int64{1, 2, 3, 5, 6} { // 4 lost in the crash
		if err := d.Append(write(idx, "k", idx)); err != nil {
			t.Fatalf("Append %d: %v", idx, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Close() }()
	s := storage.NewStore()
	base, err := d2.Recover(s)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if base != 3 {
		t.Fatalf("recovered index = %d, want 3 (frontier below the hole)", base)
	}
	if v, _ := s.Get("p", "k"); storage.ValueInt64(v) != 3 {
		t.Fatalf("recovered value = %d, want 3 — orphan records above the hole must not install", storage.ValueInt64(v))
	}
	if lc := s.LastCommitted("p"); lc != 3 {
		t.Fatalf("partition floor = %d, want 3", lc)
	}
}

func TestRecoverCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Padded so that the checkpoint deletes the first segment: recovery
	// cannot succeed from the log alone.
	live := buildState(t, d, 60, segmentFill)
	// Checkpoint at 60, then 40 more commits land in the tail.
	if !d.TryBeginCheckpoint() {
		t.Fatal("checkpoint slot busy")
	}
	if err := d.Checkpoint(live.CheckpointAt(60)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, walSubdir, "wal-*.seg")); len(segs) != 1 {
		t.Fatalf("%d WAL segments after the checkpoint, want 1", len(segs))
	}
	for i := int64(61); i <= 100; i++ {
		rec := write(i, "k", i)
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
		live.InstallCommit(rec.TOIndex, rec.Writes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Close() }()
	s := storage.NewStore()
	base, err := d2.Recover(s)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if base != 100 {
		t.Fatalf("recovered index = %d, want 100", base)
	}
	if v, ok := s.Get("p", "k"); !ok || storage.ValueInt64(v) != 100 {
		t.Fatalf("recovered value = %v %v, want 100", v, ok)
	}
	if got := s.LastCommitted("p"); got != 100 {
		t.Fatalf("LastCommitted = %d, want 100", got)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := buildState(t, d, 50, 0)
	// Two checkpoints: 30 (valid) and 50 (to be corrupted). Keep the WAL
	// intact so the tail above 30 replays. pruneCheckpoints would delete
	// the older file, so save both manually.
	if err := saveCheckpoint(dir, live.CheckpointAt(30)); err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoint(dir, live.CheckpointAt(50)); err != nil {
		t.Fatal(err)
	}
	files, err := d.checkpointFiles()
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint files = %v (%v)", files, err)
	}
	// Corrupt the newest checkpoint's body.
	data, err := os.ReadFile(files[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Close() }()
	s := storage.NewStore()
	base, err := d2.Recover(s)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// Fallback checkpoint at 30 + full log replay above it = 50.
	if base != 50 {
		t.Fatalf("recovered index = %d, want 50", base)
	}
	if s.Digest() != live.Digest() {
		t.Fatal("recovered state differs after checkpoint fallback")
	}
}

func TestCheckpointBoundsReplayAndPrunes(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := buildState(t, d, 100, segmentFill)
	if !d.TryBeginCheckpoint() {
		t.Fatal("slot busy")
	}
	if err := d.Checkpoint(live.CheckpointAt(50)); err != nil {
		t.Fatal(err)
	}
	if !d.TryBeginCheckpoint() {
		t.Fatal("slot not released")
	}
	if err := d.Checkpoint(live.CheckpointAt(100)); err != nil {
		t.Fatal(err)
	}
	// Only the newest checkpoint file survives.
	files, err := d.checkpointFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].index != 100 {
		t.Fatalf("checkpoint files after prune = %v", files)
	}
	// Old WAL segments are gone.
	segs, err := filepath.Glob(filepath.Join(dir, walSubdir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("WAL not bounded after checkpoint: %d segments remain", len(segs))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Close() }()
	s := storage.NewStore()
	base, err := d2.Recover(s)
	if err != nil || base != 100 {
		t.Fatalf("Recover = %d, %v; want 100", base, err)
	}
	if s.Digest() != live.Digest() {
		t.Fatal("recovered state differs after bounded replay")
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	s := storage.NewStore()
	base, err := d.Recover(s)
	if err != nil || base != 0 {
		t.Fatalf("Recover on empty dir = %d, %v; want 0, nil", base, err)
	}
}

func TestCheckpointPreservesEmptyVsNilValues(t *testing.T) {
	// Gob collapses empty slices to nil; the checkpoint codec must not —
	// an empty committed value means "key present", nil means "absent".
	s := storage.NewStore()
	s.InstallCommit(1, []storage.ClassKeyValue{
		{Partition: "p", Key: "empty", Value: storage.Value{}},
		{Partition: "p", Key: "nilval", Value: nil},
		{Partition: "p", Key: "full", Value: storage.StringValue("x")},
	})
	dir := t.TempDir()
	if err := saveCheckpoint(dir, s.CheckpointAt(1)); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	restored := storage.NewStore()
	if _, err := d.Recover(restored); err != nil {
		t.Fatal(err)
	}
	if v, ok := restored.Get("p", "empty"); !ok || v == nil || len(v) != 0 {
		t.Fatalf("empty value mangled: v=%v ok=%v", v, ok)
	}
	if _, ok := restored.Get("p", "nilval"); ok {
		t.Fatal("nil value resurrected as present")
	}
	if v, ok := restored.Get("p", "full"); !ok || storage.ValueString(v) != "x" {
		t.Fatalf("full value mangled: %v %v", v, ok)
	}
	if restored.Digest() != s.Digest() {
		t.Fatal("digest mismatch after checkpoint round-trip")
	}
}
