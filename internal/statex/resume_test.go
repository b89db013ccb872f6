package statex

import (
	"context"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/recovery"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// resumeOpts keeps failover fast: the first donor's silence is detected
// on the chunk timeout.
var resumeOpts = Options{respTimeout: 2 * time.Second, chunkTimeout: 200 * time.Millisecond}

// TestFetchResumesTailAcrossFailover: donor 1 dies mid-tail after four
// verified entries; the failover JoinReq advertises those entries, so
// donor 2 serves only the missing range, and the assembled backlog is
// the stitched whole.
func TestFetchResumesTailAcrossFailover(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	all := mkEntries(1, 10)

	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: all[:4]})
		// ... and silence: died mid-tail.
	}, make(chan uint64, 1))

	from2 := make(chan int64, 1)
	scriptDonor(hub.Endpoint(2), func(joiner transport.NodeID, req JoinReq) {
		from2 <- req.From
		ep := hub.Endpoint(2)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: all[req.From:]})
		_ = ep.Send(joiner, StreamXfer, Done{Xfer: req.Xfer, StartStage: 8, ResumeSeq: 2, Chunks: 1, Frontier: 10})
	}, make(chan uint64, 1))

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1, 2}, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-from2:
		if f != 4 {
			t.Fatalf("failover advertised From=%d, want 4 (only the missing range)", f)
		}
	default:
		t.Fatal("second donor never asked")
	}
	if xfer.Donor != 2 || xfer.Mode != TailOnly || xfer.Base != 0 {
		t.Fatalf("transfer = %+v", xfer)
	}
	if len(xfer.Join.Backlog) != 10 {
		t.Fatalf("stitched backlog has %d entries, want 10", len(xfer.Join.Backlog))
	}
	for i, ent := range xfer.Join.Backlog {
		if ent.Seq != uint64(i+1) {
			t.Fatalf("backlog[%d].Seq = %d", i, ent.Seq)
		}
	}
	if xfer.Join.StartStage != 8 {
		t.Fatalf("StartStage = %d", xfer.Join.StartStage)
	}
}

// ckptChunks encodes a checkpoint into wire chunks of the given size.
func ckptChunks(t testing.TB, xfer uint64, ck *storage.Checkpoint, chunkBytes int) []CkptChunk {
	t.Helper()
	data, err := recovery.EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	var out []CkptChunk
	for seq, off := 0, 0; ; seq++ {
		end := off + chunkBytes
		if end > len(data) {
			end = len(data)
		}
		out = append(out, CkptChunk{
			Xfer: xfer, Seq: seq, Data: data[off:end],
			CRC:  crc32.Checksum(data[off:end], castagnoli),
			Last: end == len(data),
		})
		if end == len(data) {
			return out
		}
		off = end
	}
}

// TestFetchRetainsCheckpointAcrossFailover: donor 1 streams a complete
// checkpoint plus part of the tail, then dies. The checkpoint is NOT
// re-fetched: the failover advertises checkpoint index + verified tail,
// donor 2 serves tail-only, and the final transfer still carries donor
// 1's checkpoint.
func TestFetchRetainsCheckpointAcrossFailover(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	ck := mkCheckpoint(7)
	tail := mkEntries(8, 12)

	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		for _, chunk := range ckptChunks(t, req.Xfer, ck, 64) {
			_ = ep.Send(joiner, StreamXfer, chunk)
		}
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: tail[:2]}) // 8, 9
		// ... and silence: died mid-tail.
	}, make(chan uint64, 1))

	from2 := make(chan int64, 1)
	scriptDonor(hub.Endpoint(2), func(joiner transport.NodeID, req JoinReq) {
		from2 <- req.From
		ep := hub.Endpoint(2)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: tail[req.From-7:]})
		_ = ep.Send(joiner, StreamXfer, Done{Xfer: req.Xfer, StartStage: 13, Chunks: 1, Frontier: 12})
	}, make(chan uint64, 1))

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1, 2}, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if f := <-from2; f != 9 {
		t.Fatalf("failover advertised From=%d, want 9 (checkpoint 7 + 2 verified entries)", f)
	}
	if xfer.Mode != CheckpointTail || xfer.Donor != 2 {
		t.Fatalf("transfer mode=%v donor=%v", xfer.Mode, xfer.Donor)
	}
	if xfer.Checkpoint == nil || xfer.Checkpoint.Index != 7 || xfer.Base != 7 {
		t.Fatalf("checkpoint = %+v base=%d", xfer.Checkpoint, xfer.Base)
	}
	// The retained checkpoint reconstructs donor 1's state bit-for-bit.
	want, got := storage.NewStore(), storage.NewStore()
	want.InstallCheckpoint(ck)
	got.InstallCheckpoint(xfer.Checkpoint)
	if want.Digest() != got.Digest() {
		t.Fatal("retained checkpoint digest differs")
	}
	if len(xfer.Join.Backlog) != 5 || xfer.Join.Backlog[0].Seq != 8 || xfer.Join.Backlog[4].Seq != 12 {
		t.Fatalf("stitched backlog = %+v", xfer.Join.Backlog)
	}
}

// TestFetchDiscardsPartialCheckpoint: an incomplete checkpoint stream is
// donor-specific bytes and cannot be resumed elsewhere — the failover
// starts over from the joiner's own index.
func TestFetchDiscardsPartialCheckpoint(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		data := []byte("first half of a checkpoint")
		_ = ep.Send(joiner, StreamXfer, CkptChunk{
			Xfer: req.Xfer, Seq: 0, Data: data, CRC: crc32.Checksum(data, castagnoli),
		})
		// ... and silence, mid-checkpoint.
	}, make(chan uint64, 1))

	from2 := make(chan int64, 1)
	good := &fakeSource{entries: mkEntries(3, 6), oldest: 3, stage: 4}
	donor2 := NewServer(hub.Endpoint(2), good, nil)
	donor2.Start()
	defer donor2.Stop()
	// Observe the failover's advertised index through a tap on the
	// request stream of a third scripted observer? Simpler: the joiner
	// recovered to 2, so anything but From=2 would change the served
	// range; assert via the result instead.
	_ = from2

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 2, []transport.NodeID{1, 2}, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Donor != 2 || xfer.Mode != TailOnly || xfer.Base != 2 {
		t.Fatalf("transfer = %+v", xfer)
	}
	if xfer.Checkpoint != nil {
		t.Fatal("partial checkpoint was retained")
	}
	if len(xfer.Join.Backlog) != 4 || xfer.Join.Backlog[0].Seq != 3 {
		t.Fatalf("backlog = %+v", xfer.Join.Backlog)
	}
}

// TestFetchResumeConsistencyWithJoinState: the stitched transfer feeds a
// JoinState whose backlog covers exactly (Base, StartStage-era frontier]
// with no duplicate or missing positions — the invariant applyJoin
// depends on.
func TestFetchResumeConsistencyWithJoinState(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	all := mkEntries(5, 20)
	// The delivered sets are the final donor's, the one whose Done closes
	// the transfer: captured with the last entry, they cover the others'.
	delivered := []abcast.SeqRange{{Origin: 0, Lo: 1, Hi: 11}, {Origin: 2, Lo: 1, Hi: 7}}
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: all[:7]}) // 5..11
	}, make(chan uint64, 1))
	scriptDonor(hub.Endpoint(2), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(2)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: all[req.From-4:]})
		_ = ep.Send(joiner, StreamXfer, Done{Xfer: req.Xfer, StartStage: 21, ResumeSeq: 11, Delivered: delivered, Chunks: 1, Frontier: 20})
	}, make(chan uint64, 1))

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 4, []transport.NodeID{1, 2}, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, ent := range xfer.Join.Backlog {
		if ent.Seq <= uint64(xfer.Base) {
			t.Fatalf("backlog entry %d at or below base %d", ent.Seq, xfer.Base)
		}
		if seen[ent.Seq] {
			t.Fatalf("duplicate backlog position %d", ent.Seq)
		}
		seen[ent.Seq] = true
	}
	if len(seen) != 16 {
		t.Fatalf("backlog covers %d positions, want 16", len(seen))
	}
	if xfer.Join.ResumeSeq != 11+ResumeSeqSlack {
		t.Fatalf("ResumeSeq = %d", xfer.Join.ResumeSeq)
	}
	if !slices.Equal(xfer.Join.Delivered, delivered) {
		t.Fatalf("Delivered = %v, want the final donor's %v", xfer.Join.Delivered, delivered)
	}
}
