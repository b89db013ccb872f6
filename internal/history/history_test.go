package history_test

import (
	"strings"
	"testing"

	"otpdb/internal/abcast"
	"otpdb/internal/db"
	"otpdb/internal/history"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

func mid(n uint64) abcast.MsgID { return abcast.MsgID{Origin: 0, Seq: n} }

func keys(part string, ks ...string) []storage.ClassKey {
	out := make([]storage.ClassKey, len(ks))
	for i, k := range ks {
		out[i] = storage.ClassKey{Partition: storage.Partition(part), Key: storage.Key(k)}
	}
	return out
}

func cls(cs ...string) []sproc.ClassID {
	out := make([]sproc.ClassID, len(cs))
	for i, c := range cs {
		out[i] = sproc.ClassID(c)
	}
	return out
}

func TestEmptyHistoryIsSerializable(t *testing.T) {
	r := history.NewRecorder()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAgreeingSitesPass(t *testing.T) {
	r := history.NewRecorder()
	for site := 0; site < 3; site++ {
		r.RecordUpdate(transport.NodeID(site), mid(1), cls("x"), 1, nil, keys("x", "k"))
		r.RecordUpdate(transport.NodeID(site), mid(2), cls("x"), 2, nil, keys("x", "k"))
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	u, q := r.Counts()
	if u != 6 || q != 0 {
		t.Fatalf("counts = %d,%d", u, q)
	}
}

func TestClassDisagreementDetected(t *testing.T) {
	r := history.NewRecorder()
	r.RecordUpdate(0, mid(1), cls("x"), 1, nil, keys("x", "k"))
	r.RecordUpdate(1, mid(1), cls("y"), 1, nil, keys("y", "k"))
	if err := r.Check(); err == nil {
		t.Fatal("class disagreement not detected")
	}
}

func TestIDDisagreementDetected(t *testing.T) {
	r := history.NewRecorder()
	r.RecordUpdate(0, mid(1), cls("x"), 1, nil, keys("x", "k"))
	r.RecordUpdate(1, mid(9), cls("x"), 1, nil, keys("x", "k"))
	if err := r.Check(); err == nil {
		t.Fatal("id disagreement not detected")
	}
}

func TestNonDeterministicWriteSetDetected(t *testing.T) {
	r := history.NewRecorder()
	r.RecordUpdate(0, mid(1), cls("x"), 1, nil, keys("x", "a"))
	r.RecordUpdate(1, mid(1), cls("x"), 1, nil, keys("x", "b"))
	if err := r.Check(); err == nil {
		t.Fatal("write-set divergence not detected")
	}
}

func TestOutOfOrderClassCommitDetected(t *testing.T) {
	r := history.NewRecorder()
	// Site 0 commits T2 before T1 within the same class.
	r.RecordUpdate(0, mid(2), cls("x"), 2, nil, keys("x", "k"))
	r.RecordUpdate(0, mid(1), cls("x"), 1, nil, keys("x", "k"))
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), "definitive order") {
		t.Fatalf("err = %v", err)
	}
}

func TestSnapshotQueriesAreSerializable(t *testing.T) {
	r := history.NewRecorder()
	for site := 0; site < 2; site++ {
		r.RecordUpdate(transport.NodeID(site), mid(2), cls("x"), 2, nil, keys("x", "kx"))
		r.RecordUpdate(transport.NodeID(site), mid(5), cls("y"), 5, nil, keys("y", "ky"))
	}
	// Site 0's query at index 3: sees T2's kx, initial ky.
	r.RecordQuery(0, 3, []db.QueryRead{
		{Class: "x", Key: "kx", Version: 2},
		{Class: "y", Key: "ky", Version: 0},
	})
	// Site 1's query at index 5: sees both.
	r.RecordQuery(1, 5, []db.QueryRead{
		{Class: "x", Key: "kx", Version: 2},
		{Class: "y", Key: "ky", Version: 5},
	})
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

// The Section 5 counterexample: query Q at site N observes T2 -> Q -> T5,
// query Q' at site N' observes T5 -> Q' -> T2. The union history has the
// cycle T2 -> Q -> T5 -> Q' -> T2 and must be rejected.
func TestSection5DirtyQueryCycleDetected(t *testing.T) {
	r := history.NewRecorder()
	for site := 0; site < 2; site++ {
		r.RecordUpdate(transport.NodeID(site), mid(2), cls("x"), 2, nil, keys("x", "kx"))
		r.RecordUpdate(transport.NodeID(site), mid(5), cls("y"), 5, nil, keys("y", "ky"))
	}
	// Q at N: read kx after T2, ky before T5.
	r.RecordQuery(0, 5, []db.QueryRead{
		{Class: "x", Key: "kx", Version: 2},
		{Class: "y", Key: "ky", Version: 0},
	})
	// Q' at N': read ky after T5, kx before T2 — only possible with
	// dirty reads, impossible with Section 5 snapshots.
	r.RecordQuery(1, 5, []db.QueryRead{
		{Class: "y", Key: "ky", Version: 5},
		{Class: "x", Key: "kx", Version: 0},
	})
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), "not serializable") {
		t.Fatalf("err = %v, want conflict cycle", err)
	}
}

func TestQueryReadOfUnknownVersionDetected(t *testing.T) {
	r := history.NewRecorder()
	r.RecordUpdate(0, mid(1), cls("x"), 1, nil, keys("x", "k"))
	r.RecordQuery(0, 9, []db.QueryRead{{Class: "x", Key: "k", Version: 7}})
	if err := r.Check(); err == nil {
		t.Fatal("read of unrecorded version not detected")
	}
}

func TestQueryReadOfNonWrittenKeyDetected(t *testing.T) {
	r := history.NewRecorder()
	r.RecordUpdate(0, mid(1), cls("x"), 1, nil, keys("x", "a"))
	r.RecordQuery(0, 1, []db.QueryRead{{Class: "x", Key: "b", Version: 1}})
	if err := r.Check(); err == nil {
		t.Fatal("version/key mismatch not detected")
	}
}

// A rebuilt site commits again the prefix its peer's state did not cover:
// that is one more replica agreeing, not a commit out of order — as long as
// each life is in order and both lives read and wrote the same.
func TestRebuiltSiteMayRecommitItsPrefix(t *testing.T) {
	record := func(r *history.Recorder, site transport.NodeID, idxs ...int64) {
		for _, i := range idxs {
			r.RecordUpdate(site, mid(uint64(i)), cls("x"), i, keys("x", "k"), keys("x", "k"))
		}
	}
	r := history.NewRecorder()
	record(r, 0, 1, 2, 3)
	record(r, 1, 1, 2)
	r.Rebuilt(1)
	record(r, 1, 1, 2, 3)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	// Without the rebuild the same observations are a site going backwards.
	r = history.NewRecorder()
	record(r, 1, 1, 2, 1, 2, 3)
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "out of definitive order") {
		t.Fatalf("one life committing 1 after 2: %v", err)
	}

	// A new life is held to the order too.
	r = history.NewRecorder()
	record(r, 1, 1, 2)
	r.Rebuilt(1)
	record(r, 1, 2, 1)
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "out of definitive order") {
		t.Fatalf("second life committing 1 after 2: %v", err)
	}

	// And to what the first life read and wrote at the same index.
	r = history.NewRecorder()
	record(r, 1, 1)
	r.Rebuilt(1)
	r.RecordUpdate(1, mid(1), cls("x"), 1, keys("x", "other"), keys("x", "k"))
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "after a rebuild") {
		t.Fatalf("second life reading another key at index 1: %v", err)
	}
}
