package statex

import (
	"context"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/events"
	"otpdb/internal/recovery"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// failoverOpts keeps failover fast: the first donor's silence is detected
// on the chunk timeout.
var failoverOpts = Options{respTimeout: 2 * time.Second, chunkTimeout: 200 * time.Millisecond}

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

// TestFetchFailoverStartsOver: donor 1 streams a complete checkpoint and
// part of the tail, then goes silent. Nothing of it is kept: the
// failover asks donor 2 from the joiner's own recovered index, and the
// transfer is exactly what donor 2 serves to a joiner that asks it alone.
func TestFetchFailoverStartsOver(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		for _, chunk := range ckptChunks(t, req.Xfer, mkCheckpoint(7), 64) {
			_ = ep.Send(joiner, StreamXfer, chunk)
		}
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: mkEntries(8, 9)})
		// ... and silence: died mid-tail.
	}, make(chan uint64, 1))

	// Donor 2 retains 8.. and checkpoints at 10: a joiner at 2 gets
	// checkpoint 10 + 11..14, while one that advertised donor 1's
	// checkpoint and prefix (9) would get a tail-only 10..14.
	rec := events.NewRecorder(64)
	src := &fakeSource{ck: mkCheckpoint(10), entries: mkEntries(8, 14), oldest: 8, stage: 15, resume: 5,
		delivered: []abcast.SeqRange{{Origin: 1, Lo: 1, Hi: 14}}}
	donor2 := NewServer(hub.Endpoint(2), src, rec)
	donor2.Start()
	defer donor2.Stop()

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 2, []transport.NodeID{1, 2}, failoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	var froms []string
	for _, ev := range rec.Events() {
		if ev.Fields["phase"] == "serve" {
			froms = append(froms, ev.Fields["from"])
		}
	}
	if !slices.Equal(froms, []string{"2"}) {
		t.Fatalf("donor 2 was asked from %v, want [2] (the joiner's recovered index)", froms)
	}

	alone, err := Fetch(context.Background(), hub.Endpoint(0), 2, []transport.NodeID{2}, failoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Transfer{xfer, alone} {
		if x.Mode != CheckpointTail || x.Donor != 2 || x.Base != 10 || x.Checkpoint == nil || x.Checkpoint.Index != 10 {
			t.Fatalf("transfer mode=%v donor=%v base=%d, want donor 2's checkpoint+tail at 10", x.Mode, x.Donor, x.Base)
		}
	}
	if !slices.EqualFunc(xfer.Join.Backlog, alone.Join.Backlog, func(a, b abcast.DefEntry) bool { return a.Seq == b.Seq }) ||
		len(xfer.Join.Backlog) != 4 || xfer.Join.Backlog[0].Seq != 11 {
		t.Fatalf("backlog %v, want donor 2's 11..14", xfer.Join.Backlog)
	}
	if xfer.Join.StartStage != alone.Join.StartStage || xfer.Join.ResumeSeq != alone.Join.ResumeSeq ||
		!slices.Equal(xfer.Join.Delivered, src.delivered) {
		t.Fatalf("join state %d/%d/%v, want donor 2's %d/%d/%v", xfer.Join.StartStage, xfer.Join.ResumeSeq,
			xfer.Join.Delivered, alone.Join.StartStage, alone.Join.ResumeSeq, src.delivered)
	}
	want, got := storage.NewStore(), storage.NewStore()
	want.InstallCheckpoint(src.ck)
	got.InstallCheckpoint(xfer.Checkpoint)
	if want.Digest() != got.Digest() {
		t.Fatal("checkpoint differs from donor 2's")
	}
}

// TestFetchDiscardsPartialCheckpoint: an incomplete checkpoint stream is
// dropped with its attempt — the failover starts over from the joiner's
// own index.
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

	good := &fakeSource{entries: mkEntries(3, 6), oldest: 3, stage: 4}
	donor2 := NewServer(hub.Endpoint(2), good, nil)
	donor2.Start()
	defer donor2.Stop()

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 2, []transport.NodeID{1, 2}, failoverOpts)
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
