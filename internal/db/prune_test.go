package db_test

import (
	"context"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/consensus"
	"otpdb/internal/db"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// TestReplicaPrunesVersions drives a replica with a tiny prune interval
// through many updates of one key and verifies that (a) the version
// chain is pruned instead of growing without bound, (b) the watermark
// advanced, and (c) snapshot queries keep working after pruning.
func TestReplicaPrunesVersions(t *testing.T) {
	reg := bankRegistry(t, 1, 1)
	hub := transport.NewHub(1)
	t.Cleanup(hub.Close)
	ep := hub.Endpoint(0)
	cons := consensus.New(consensus.Config{Endpoint: ep, RoundTimeout: 50 * time.Millisecond})
	cons.Start()
	bc := abcast.NewOptimistic(ep, cons)
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	rep, err := db.New(db.Config{
		ID:        0,
		Broadcast: bc,
		Registry:  reg,
		Store:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.SetPruneEvery(16)
	rep.Start()
	t.Cleanup(func() {
		rep.Stop()
		_ = bc.Stop()
		cons.Stop()
	})

	const txns = 200
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < txns; i++ {
		if _, err := rep.Exec(ctx, "deposit-c0",
			storage.StringValue("acct0"), storage.Int64Value(1)); err != nil {
			t.Fatal(err)
		}
	}

	if got := store.VersionCount(); got >= txns {
		t.Fatalf("version count %d did not shrink (expected pruning below %d)", got, txns)
	}
	w := store.PruneWatermark("c0")
	if w == 0 {
		t.Fatal("prune watermark never advanced")
	}
	// Queries after pruning still read exact, current snapshots.
	v, err := rep.Query(ctx, "get", storage.StringValue("c0"), storage.StringValue("acct0"))
	if err != nil {
		t.Fatal(err)
	}
	if storage.ValueInt64(v) != txns {
		t.Fatalf("post-prune query = %d, want %d", storage.ValueInt64(v), txns)
	}
	// Raw reads below the watermark fail loudly at the storage layer.
	if _, _, _, err := store.SnapshotReadAt("c0", "acct0", w-1); err == nil {
		t.Fatal("read below watermark succeeded")
	}
}

// A checkpoint is a pinned query snapshot: while it waits for a class's
// uncommitted transaction, the prune passes that other classes' commits
// run keep every version it is going to read.
func TestCheckpointPinsAgainstPrune(t *testing.T) {
	gate := make(chan struct{})
	reg := sproc.NewRegistry()
	registerBump(t, reg, "hold", "a", func(ctx sproc.UpdateCtx) {
		if len(ctx.Args()) > 0 {
			<-gate
		}
	})
	registerBump(t, reg, "bump", "b", nil)
	s := newScriptedReplica(t, reg)
	defer func() {
		s.rep.Stop()
		_ = s.bc.Stop()
	}()
	s.rep.SetPruneEvery(1)
	commit := func(proc string, args ...storage.Value) chan struct{} {
		id, req, done := s.submit(t, proc, args...)
		s.bc.InjectOpt(id, req)
		s.bc.InjectTO(id)
		return done
	}
	waitFor(t, commit("hold"), "a's first commit") // TO 1
	waitFor(t, commit("bump"), "b's first commit") // TO 2
	held := commit("hold", storage.Int64Value(1))  // TO 3, its body waits for gate
	var released bool
	defer func() {
		if !released {
			close(gate)
		}
	}()
	testutil.Eventually(t, 5*time.Second, "TO 3 to be delivered", func() bool { return s.rep.LastTO() == 3 })

	type result struct {
		ck  *storage.Checkpoint
		err error
	}
	res := make(chan result, 1)
	go func() {
		ck, err := s.rep.Checkpoint(context.Background())
		res <- result{ck, err}
	}()
	testutil.Eventually(t, 5*time.Second, "the checkpoint to pin its snapshot", func() bool { return s.rep.OpenSnaps() == 1 })
	for to := 4; to <= 6; to++ {
		waitFor(t, commit("bump"), "a commit of b, and its prune pass") // TO 4, 5, 6
	}
	select {
	case r := <-res:
		t.Fatalf("checkpoint returned (%v) before TO 3 committed", r.err)
	default:
	}
	if n := s.rep.OpenSnaps(); n != 1 {
		t.Fatalf("%d open snapshots while the checkpoint waits, want 1", n)
	}
	store := s.rep.Store()
	if w := store.PruneWatermark("b"); w > 3 {
		t.Fatalf("prune watermark %d passed the checkpoint index 3", w)
	}
	if v, ver, ok, err := store.SnapshotReadAt("b", "n", 3); err != nil || !ok || ver != 2 || storage.ValueInt64(v) != 1 {
		t.Fatalf("b at the checkpoint index = %d (version %d, %v, %v), want 1 at version 2", storage.ValueInt64(v), ver, ok, err)
	}

	released = true
	close(gate)
	waitFor(t, held, "TO 3 to commit")
	var r result
	select {
	case r = <-res:
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint still waiting after TO 3 committed")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.ck.Index != 3 {
		t.Fatalf("checkpoint index %d, want 3", r.ck.Index)
	}
	if n := s.rep.OpenSnaps(); n != 0 {
		t.Fatalf("%d open snapshots after the checkpoint, want 0", n)
	}
}
