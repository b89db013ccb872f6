package otp

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"otpdb/internal/abcast"
)

// recordingMultiExec mirrors recordingExec for MultiManager.
type recordingMultiExec struct {
	mgr  *MultiManager
	auto bool

	mu      sync.Mutex
	running map[abcast.MsgID]int
	submits []abcast.MsgID
	aborts  []abcast.MsgID
	commits []abcast.MsgID
}

func newMultiExec(auto bool) *recordingMultiExec {
	return &recordingMultiExec{auto: auto, running: make(map[abcast.MsgID]int)}
}

func (e *recordingMultiExec) Submit(tx *MultiTxn, epoch int) {
	e.mu.Lock()
	e.submits = append(e.submits, tx.ID)
	e.running[tx.ID] = epoch
	e.mu.Unlock()
	if e.auto {
		e.mgr.OnExecuted(tx.ID, epoch)
	}
}

func (e *recordingMultiExec) Abort(tx *MultiTxn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.aborts = append(e.aborts, tx.ID)
	delete(e.running, tx.ID)
}

func (e *recordingMultiExec) Commit(tx *MultiTxn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.commits = append(e.commits, tx.ID)
	delete(e.running, tx.ID)
}

func (e *recordingMultiExec) complete(id abcast.MsgID) {
	e.mu.Lock()
	epoch, ok := e.running[id]
	e.mu.Unlock()
	if !ok {
		return
	}
	e.mgr.OnExecuted(id, epoch)
}

func newMulti(auto bool) (*MultiManager, *recordingMultiExec) {
	exec := newMultiExec(auto)
	mgr := NewMultiManager(exec, MultiHooks{})
	exec.mgr = mgr
	return mgr, exec
}

func mustOptM(t *testing.T, m *MultiManager, n uint64, classes ...ClassID) {
	t.Helper()
	if err := m.OnOptDeliver(id(n), classes, nil); err != nil {
		t.Fatal(err)
	}
}

func mustTOM(t *testing.T, m *MultiManager, n uint64) {
	t.Helper()
	if err := m.OnTODeliver(id(n)); err != nil {
		t.Fatal(err)
	}
}

func assertMultiInvariants(t *testing.T, m *MultiManager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
}

func TestMultiRejectsEmptyClassSet(t *testing.T) {
	m, _ := newMulti(false)
	if err := m.OnOptDeliver(id(1), nil, nil); !errors.Is(err, ErrNoClasses) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiSingleClassBehavesLikeManager(t *testing.T) {
	m, exec := newMulti(false)
	mustOptM(t, m, 1, "C")
	mustOptM(t, m, 2, "C")
	if len(exec.submits) != 1 {
		t.Fatalf("submits = %v", exec.submits)
	}
	exec.complete(id(1))
	mustTOM(t, m, 1)
	mustTOM(t, m, 2)
	exec.complete(id(2))
	if len(exec.commits) != 2 || exec.commits[0] != id(1) {
		t.Fatalf("commits = %v", exec.commits)
	}
	assertMultiInvariants(t, m)
}

func TestMultiWaitsForAllHeads(t *testing.T) {
	m, exec := newMulti(false)
	mustOptM(t, m, 1, "A")      // heads A, runs
	mustOptM(t, m, 2, "A", "B") // behind T1 in A: must wait
	if len(exec.submits) != 1 || exec.submits[0] != id(1) {
		t.Fatalf("submits = %v", exec.submits)
	}
	q := m.QueueSnapshot("B")
	if len(q) != 1 || q[0].Running {
		t.Fatalf("B queue = %v; cross-class txn must not run", q)
	}
	// T1 commits; T2 heads both queues and starts.
	exec.complete(id(1))
	mustTOM(t, m, 1)
	if len(exec.submits) != 2 || exec.submits[1] != id(2) {
		t.Fatalf("submits = %v", exec.submits)
	}
	assertMultiInvariants(t, m)
}

func TestMultiClassTxnBlocksBothQueues(t *testing.T) {
	m, exec := newMulti(false)
	mustOptM(t, m, 1, "A", "B") // heads both, runs
	mustOptM(t, m, 2, "A")
	mustOptM(t, m, 3, "B")
	if len(exec.submits) != 1 {
		t.Fatalf("submits = %v", exec.submits)
	}
	exec.complete(id(1))
	mustTOM(t, m, 1) // commit T1; both T2 and T3 become runnable
	if len(exec.submits) != 3 {
		t.Fatalf("submits = %v; want T2 and T3 released", exec.submits)
	}
	assertMultiInvariants(t, m)
}

func TestMultiMismatchAbortsRunningHead(t *testing.T) {
	m, exec := newMulti(false)
	mustOptM(t, m, 1, "A", "B") // tentative first, starts
	mustOptM(t, m, 2, "B", "C")
	exec.complete(id(1)) // T1 executed, pending
	mustTOM(t, m, 2)     // definitive order favours T2: T1 must be undone
	if len(exec.aborts) != 1 || exec.aborts[0] != id(1) {
		t.Fatalf("aborts = %v", exec.aborts)
	}
	// T2 now heads B and C and runs; T1 waits behind it in B.
	q := m.QueueSnapshot("B")
	if q[0].ID != id(2) || !q[0].Running {
		t.Fatalf("B head = %v", q[0])
	}
	exec.complete(id(2))
	mustTOM(t, m, 1)
	exec.complete(id(1))
	want := []abcast.MsgID{id(2), id(1)}
	for i := range want {
		if exec.commits[i] != want[i] {
			t.Fatalf("commits = %v, want %v", exec.commits, want)
		}
	}
	assertMultiInvariants(t, m)
}

func TestMultiIdleHeadNotAbortedOnDisplacement(t *testing.T) {
	m, exec := newMulti(false)
	mustOptM(t, m, 1, "A")      // runs in A
	mustOptM(t, m, 2, "A", "B") // waits behind T1; heads B but idle
	mustOptM(t, m, 3, "B")      // behind T2 in B
	// T3 confirmed first: T2 (B's head) is pending but never started, so
	// no executor abort is needed — it just shifts.
	mustTOM(t, m, 3)
	if len(exec.aborts) != 0 {
		t.Fatalf("aborted idle transaction: %v", exec.aborts)
	}
	q := m.QueueSnapshot("B")
	if q[0].ID != id(3) || q[1].ID != id(2) {
		t.Fatalf("B queue = %v", q)
	}
	// T3 heads B and runs immediately.
	if !q[0].Running {
		t.Fatalf("confirmed head not running: %v", q[0])
	}
	assertMultiInvariants(t, m)
}

func TestMultiDuplicateClassesNormalized(t *testing.T) {
	exec := newMultiExec(true)
	var committed [][]ClassID
	m := NewMultiManager(exec, MultiHooks{OnCommit: func(tx *MultiTxn) {
		committed = append(committed, slices.Clone(tx.Classes))
	}})
	exec.mgr = m
	mustOptM(t, m, 1, "B", "A", "B")
	mustTOM(t, m, 1)
	if m.Pending() != 0 {
		t.Fatal("txn with duplicate classes stuck")
	}
	if len(committed) != 1 || !slices.Equal(committed[0], []ClassID{"A", "B"}) {
		t.Fatalf("committed = %v", committed)
	}
}

func TestMultiErrorsMirrorManager(t *testing.T) {
	m, _ := newMulti(true)
	mustOptM(t, m, 1, "C")
	if err := m.OnOptDeliver(id(1), []ClassID{"C"}, nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup opt err = %v", err)
	}
	if err := m.OnTODeliver(id(9)); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("unknown TO err = %v", err)
	}
	m.OnExecuted(id(9), 0) // must not panic
}

func TestMultiHooksFire(t *testing.T) {
	exec := newMultiExec(false)
	var commits, toDelivs int
	m := NewMultiManager(exec, MultiHooks{
		OnCommit:      func(*MultiTxn) { commits++ },
		OnTODelivered: func(_ abcast.MsgID, classes []ClassID, _ int64) { toDelivs += len(classes) },
	})
	exec.mgr = m
	if err := m.OnOptDeliver(id(1), []ClassID{"A", "B"}, nil); err != nil {
		t.Fatal(err)
	}
	exec.complete(id(1))
	if err := m.OnTODeliver(id(1)); err != nil {
		t.Fatal(err)
	}
	if commits != 1 || toDelivs != 2 {
		t.Fatalf("commits=%d toDelivs=%d", commits, toDelivs)
	}
}
