package storage

import (
	"errors"
	"testing"
)

func TestMultiTxnSpansPartitionsAtomically(t *testing.T) {
	s := NewStore()
	mt, err := s.BeginMulti([]Partition{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Write("a", "k", Int64Value(1)); err != nil {
		t.Fatal(err)
	}
	if err := mt.Write("b", "k", Int64Value(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a", "k"); ok {
		t.Fatal("uncommitted multi write visible")
	}
	if err := mt.Commit(1); err != nil {
		t.Fatal(err)
	}
	va, _ := s.Get("a", "k")
	vb, _ := s.Get("b", "k")
	if ValueInt64(va) != 1 || ValueInt64(vb) != 2 {
		t.Fatalf("a=%d b=%d", ValueInt64(va), ValueInt64(vb))
	}
	if s.LastCommitted("a") != 1 || s.LastCommitted("b") != 1 {
		t.Fatal("commit indexes not recorded per partition")
	}
}

func TestMultiTxnAbortRollsBackAll(t *testing.T) {
	s := NewStore()
	s.Load("a", "k", Int64Value(10))
	mt, err := s.BeginMulti([]Partition{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	_ = mt.Write("a", "k", Int64Value(99))
	_ = mt.Write("b", "k", Int64Value(99))
	if err := mt.Abort(); err != nil {
		t.Fatal(err)
	}
	va, _ := s.Get("a", "k")
	if ValueInt64(va) != 10 {
		t.Fatalf("a/k = %d after abort", ValueInt64(va))
	}
	if _, ok := s.Get("b", "k"); ok {
		t.Fatal("b/k exists after abort")
	}
	// Partitions released.
	if _, err := s.Begin("a", Buffered); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin("b", Buffered); err != nil {
		t.Fatal(err)
	}
}

func TestMultiTxnForeignPartitionRejected(t *testing.T) {
	s := NewStore()
	mt, err := s.BeginMulti([]Partition{"a"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mt.Abort() }()
	if err := mt.Write("z", "k", nil); err == nil {
		t.Fatal("write to undeclared partition accepted")
	}
	if _, ok := mt.Read("z", "k"); ok {
		t.Fatal("read from undeclared partition returned data")
	}
}

func TestMultiTxnBusyPartitionReleasesAcquired(t *testing.T) {
	s := NewStore()
	holder, err := s.Begin("b", Buffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginMulti([]Partition{"a", "b"}); !errors.Is(err, ErrPartitionBusy) {
		t.Fatalf("err = %v, want ErrPartitionBusy", err)
	}
	// Partition "a" must have been released by the failed BeginMulti.
	if _, err := s.Begin("a", Buffered); err != nil {
		t.Fatalf("partition a leaked: %v", err)
	}
	_ = holder.Abort()
}

func TestMultiTxnDedupesAndSortsPartitions(t *testing.T) {
	s := NewStore()
	mt, err := s.BeginMulti([]Partition{"b", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	_ = mt.Write("a", "x", nil)
	_ = mt.Write("b", "y", nil)
	ws := mt.WriteSet()
	if len(ws) != 2 || ws[0].Partition != "a" || ws[1].Partition != "b" {
		t.Fatalf("write set = %v", ws)
	}
	if err := mt.Commit(1); err != nil {
		t.Fatal(err)
	}
}

func TestMultiTxnDoneSemantics(t *testing.T) {
	s := NewStore()
	mt, _ := s.BeginMulti([]Partition{"a"})
	if err := mt.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := mt.Commit(2); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := mt.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit err = %v", err)
	}
	if _, err := s.BeginMulti(nil); err == nil {
		t.Fatal("empty partition set accepted")
	}
}

func TestMultiTxnReadSetQualified(t *testing.T) {
	s := NewStore()
	s.Load("a", "k", Int64Value(5))
	mt, _ := s.BeginMulti([]Partition{"a", "b"})
	defer func() { _ = mt.Abort() }()
	if v, ok := mt.Read("a", "k"); !ok || ValueInt64(v) != 5 {
		t.Fatalf("read = %d,%v", ValueInt64(v), ok)
	}
	rs := mt.ReadSet()
	if len(rs) != 1 || rs[0] != (ClassKey{Partition: "a", Key: "k"}) {
		t.Fatalf("read set = %v", rs)
	}
}
