package statex

import (
	"context"
	"strings"
	"testing"
	"time"

	"otpdb/internal/transport"
)

// The wire between joiner and donor is not FIFO: the chaos network
// models per-packet jitter, so chunks and even the terminal Done can
// arrive in any order. These tests pin the two sides of the guarantee:
// a reordered-but-complete stream assembles exactly, and a stream whose
// trailing chunks never arrive fails loudly instead of joining the
// group with silently missing history.

// TestFetchReorderedStreamAssembles: the donor's messages are delivered
// fully reversed — Done first, then tail chunks highest-Seq first, then
// checkpoint chunks highest-Seq first, JoinResp last. The fetch must
// still assemble the complete transfer.
func TestFetchReorderedStreamAssembles(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	ck := mkCheckpoint(7)
	tail := mkEntries(8, 12)

	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		cks := ckptChunks(t, req.Xfer, ck, 64)
		var msgs []any
		msgs = append(msgs, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		for _, c := range cks {
			msgs = append(msgs, c)
		}
		msgs = append(msgs,
			TailChunk{Xfer: req.Xfer, Seq: 0, Entries: tail[:2]},
			TailChunk{Xfer: req.Xfer, Seq: 1, Entries: tail[2:]},
			Done{Xfer: req.Xfer, StartStage: 13, ResumeSeq: 4, Chunks: 2, Frontier: 12})
		for i := len(msgs) - 1; i >= 0; i-- {
			_ = ep.Send(joiner, StreamXfer, msgs[i])
		}
	}, make(chan uint64, 1))

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1},
		Options{respTimeout: 2 * time.Second, chunkTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Mode != CheckpointTail || xfer.Base != 7 || xfer.Checkpoint == nil || xfer.Checkpoint.Index != 7 {
		t.Fatalf("transfer = %+v", xfer)
	}
	if len(xfer.Join.Backlog) != 5 || xfer.Join.Backlog[0].Seq != 8 || xfer.Join.Backlog[4].Seq != 12 {
		t.Fatalf("backlog = %+v", xfer.Join.Backlog)
	}
	if xfer.Join.StartStage != 13 {
		t.Fatalf("StartStage = %d, want 13", xfer.Join.StartStage)
	}
}

// TestFetchTruncatedStreamRejected: the Done accounts for two tail
// chunks but the second never arrives. Accepting the stream would make
// the joiner skip the missing transactions forever (it resumes at
// StartStage regardless) — the fetch must time out and fail instead of
// assembling a truncated backlog.
func TestFetchTruncatedStreamRejected(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	tail := mkEntries(1, 8)
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: tail[:4]})
		// Chunk 1 (entries 5..8) is lost for good; Done still promises it.
		_ = ep.Send(joiner, StreamXfer, Done{Xfer: req.Xfer, StartStage: 9, ResumeSeq: 3, Chunks: 2, Frontier: 8})
	}, make(chan uint64, 1))

	_, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1},
		Options{respTimeout: 2 * time.Second, chunkTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("truncated stream was accepted")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout waiting for the missing chunk", err)
	}
}
