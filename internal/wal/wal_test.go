package wal

import (
	"os"
	"path/filepath"
	"testing"

	"otpdb/internal/storage"
)

func rec(idx int64, part, key string, val int64) Record {
	return Record{TOIndex: idx, Writes: []storage.ClassKeyValue{{
		Partition: storage.Partition(part),
		Key:       storage.Key(key),
		Value:     storage.Int64Value(val),
	}}}
}

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, to int64) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := l.Append(rec(i, "p", "k", i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func replayIndexes(t *testing.T, l *Log, from int64) []int64 {
	t.Helper()
	var got []int64
	if err := l.Replay(from, func(r Record) error {
		got = append(got, r.TOIndex)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	appendN(t, l, 1, 100)
	// A record with several writes, empty and nil values.
	multi := Record{TOIndex: 101, Writes: []storage.ClassKeyValue{
		{Partition: "a", Key: "x", Value: storage.StringValue("hello")},
		{Partition: "a", Key: "y", Value: storage.Value{}},
		{Partition: "b", Key: "z", Value: nil},
	}}
	if err := l.Append(multi); err != nil {
		t.Fatalf("Append multi: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir, Options{Sync: SyncNever})
	defer func() { _ = l2.Close() }()
	if got := l2.LastIndex(); got != 101 {
		t.Fatalf("LastIndex = %d, want 101", got)
	}
	var last Record
	n := 0
	if err := l2.Replay(0, func(r Record) error { n++; last = r; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != 101 {
		t.Fatalf("replayed %d records, want 101", n)
	}
	if len(last.Writes) != 3 || last.Writes[0].Value == nil ||
		storage.ValueString(last.Writes[0].Value) != "hello" ||
		last.Writes[1].Value == nil || len(last.Writes[1].Value) != 0 ||
		last.Writes[2].Value != nil {
		t.Fatalf("multi-write record mangled: %+v", last)
	}
	// Replay from an offset skips the prefix.
	if got := replayIndexes(t, l2, 99); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("Replay(99) = %v, want [100 101]", got)
	}
}

// tailSegment returns the path of the last segment file.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the file.
	path := tailSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Sync: SyncNever})
	if got := l2.LastIndex(); got != 9 {
		t.Fatalf("LastIndex after torn tail = %d, want 9", got)
	}
	if got := replayIndexes(t, l2, 0); len(got) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(got))
	}
	// The log must accept appends after truncation.
	appendN(t, l2, 10, 12)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openT(t, dir, Options{Sync: SyncNever})
	defer func() { _ = l3.Close() }()
	if got := replayIndexes(t, l3, 0); len(got) != 12 {
		t.Fatalf("replayed %d records after re-append, want 12", len(got))
	}
}

func TestCorruptCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the last record: its CRC no longer matches,
	// so Open must truncate it (and only it).
	path := tailSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Sync: SyncNever})
	defer func() { _ = l2.Close() }()
	if got := replayIndexes(t, l2, 0); len(got) != 9 || got[len(got)-1] != 9 {
		t.Fatalf("replay after CRC corruption = %v, want 1..9", got)
	}
}

func TestSegmentRotationAndTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	l := openT(t, dir, Options{Sync: SyncNever, segmentBytes: 256})
	appendN(t, l, 1, 200)
	segs, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if err := l.TruncateBelow(150); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	after, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segs) {
		t.Fatalf("TruncateBelow removed nothing (%d -> %d segments)", len(segs), len(after))
	}
	// Everything above the checkpoint index must survive.
	got := replayIndexes(t, l, 150)
	if len(got) != 50 || got[0] != 151 || got[len(got)-1] != 200 {
		t.Fatalf("replay after truncate lost records: %d records, first %d last %d",
			len(got), got[0], got[len(got)-1])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayIntoStoreIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	appendN(t, l, 1, 50)
	defer func() { _ = l.Close() }()

	apply := func(s *storage.Store) {
		if err := l.Replay(0, func(r Record) error {
			s.InstallCommit(r.TOIndex, r.Writes)
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
	}
	s := storage.NewStore()
	apply(s)
	d1 := s.Digest()
	apply(s) // replaying twice must not change the state
	if d2 := s.Digest(); d2 != d1 {
		t.Fatalf("second replay changed the state: %x -> %x", d1, d2)
	}
	if got := s.LastCommitted("p"); got != 50 {
		t.Fatalf("LastCommitted = %d, want 50", got)
	}
	if v, ok := s.Get("p", "k"); !ok || storage.ValueInt64(v) != 50 {
		t.Fatalf("Get = %v %v, want 50", v, ok)
	}
}

func TestDirtyReopenSeesEverythingWritten(t *testing.T) {
	// Simulates a process crash (kill -9): the log is never closed, the
	// old handle is simply abandoned. Everything write()n must be
	// recovered on reopen regardless of fsync policy.
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	appendN(t, l, 1, 30)
	// No Close: abandon l.

	l2 := openT(t, dir, Options{Sync: SyncEveryCommit})
	defer func() { _ = l2.Close() }()
	if got := replayIndexes(t, l2, 0); len(got) != 30 {
		t.Fatalf("dirty reopen replayed %d records, want 30", len(got))
	}
	appendN(t, l2, 31, 35)
	if got := l2.LastIndex(); got != 35 {
		t.Fatalf("LastIndex = %d, want 35", got)
	}
}

func TestGroupSyncPolicy(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncGrouped})
	appendN(t, l, 1, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if got := replayIndexes(t, l2, 0); len(got) != 100 {
		t.Fatalf("replayed %d, want 100", len(got))
	}
}

func TestOutOfOrderAppendsKeepSegmentOrder(t *testing.T) {
	// Non-conflicting commits may append out of TOIndex order. Segment
	// names must stay strictly increasing so name-sorted order equals
	// append order — otherwise replay reorders and TruncateBelow can
	// delete the active segment.
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever, segmentBytes: 160})
	order := []int64{10, 11, 2, 12, 3, 13, 14, 4, 15}
	for _, idx := range order {
		if err := l.Append(rec(idx, "p", "k", idx)); err != nil {
			t.Fatalf("Append %d: %v", idx, err)
		}
	}
	segs, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			t.Fatalf("segment names not strictly increasing: %v", segs)
		}
	}
	if got := replayIndexes(t, l, 0); len(got) != len(order) {
		t.Fatalf("replayed %d records, want %d", len(got), len(order))
	} else {
		for i, idx := range order {
			if got[i] != idx {
				t.Fatalf("replay order %v != append order %v", got, order)
			}
		}
	}
	// Truncating below an index that the tail's out-of-order records
	// undercut must not drop anything above it.
	if err := l.TruncateBelow(12); err != nil {
		t.Fatal(err)
	}
	got := replayIndexes(t, l, 12)
	want := map[int64]bool{13: true, 14: true, 15: true}
	for _, idx := range got {
		delete(want, idx)
	}
	if len(want) != 0 {
		t.Fatalf("TruncateBelow(12) lost records: still want %v, replayed %v", want, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// And reopen still validates cleanly.
	l2 := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if got := l2.LastIndex(); got != 15 {
		t.Fatalf("LastIndex after reopen = %d, want 15", got)
	}
}

func TestHeaderlessTailSegmentRepaired(t *testing.T) {
	// A crash during segment creation can leave a tail file without its
	// magic header. Open must repair it (write the header) rather than
	// append headerless records that the NEXT Open would discard.
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNever})
	appendN(t, l, 1, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn creation: an empty segment named above the tail.
	empty := filepath.Join(dir, segPrefix+"00000000000000ff"+segSuffix)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// And a second variant: a partially written header.
	l2 := openT(t, dir, Options{Sync: SyncEveryCommit})
	appendN(t, l2, 6, 8) // lands in the repaired tail
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openT(t, dir, Options{})
	defer func() { _ = l3.Close() }()
	if got := replayIndexes(t, l3, 0); len(got) != 8 {
		t.Fatalf("replayed %d records after headerless-tail repair, want 8", len(got))
	}
	if got := l3.LastIndex(); got != 8 {
		t.Fatalf("LastIndex = %d, want 8", got)
	}
}
