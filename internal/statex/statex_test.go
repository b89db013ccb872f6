package statex

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/recovery"
	"otpdb/internal/storage"
	"otpdb/internal/testutil"
	"otpdb/internal/transport"
)

// fakeSource scripts the donor-side state: a retention window over a
// fixed definitive history, an optional checkpoint, and an optional
// blocking Checkpoint used by the pin-bounding tests.
type fakeSource struct {
	ck      *storage.Checkpoint
	entries []abcast.DefEntry
	oldest  uint64 // DefinitiveLog below this reports ErrHistoryPruned
	stage   uint64
	resume  uint64
	// delivered is handed to the joiner as is.
	delivered []abcast.SeqRange

	// blockCkpt, when non-nil, makes Checkpoint park until its context
	// is cancelled; the observed error is sent on the channel.
	blockCkpt chan error
}

func (f *fakeSource) Checkpoint(ctx context.Context) (*storage.Checkpoint, error) {
	if f.blockCkpt != nil {
		<-ctx.Done()
		f.blockCkpt <- ctx.Err()
		return nil, ctx.Err()
	}
	return f.ck, nil
}

func (f *fakeSource) DefinitiveLog(from uint64, _ transport.NodeID) (abcast.DefLog, error) {
	if from < f.oldest {
		return abcast.DefLog{}, fmt.Errorf("%w: want from %d, oldest retained %d", abcast.ErrHistoryPruned, from, f.oldest)
	}
	var out []abcast.DefEntry
	for _, e := range f.entries {
		if e.Seq >= from {
			out = append(out, e)
		}
	}
	return abcast.DefLog{Entries: out, NextStage: f.stage, ResumeSeq: f.resume, Delivered: f.delivered}, nil
}

// mkEntries builds a contiguous definitive history [from, to].
func mkEntries(from, to uint64) []abcast.DefEntry {
	var out []abcast.DefEntry
	for s := from; s <= to; s++ {
		out = append(out, abcast.DefEntry{
			Seq:     s,
			ID:      abcast.MsgID{Origin: 1, Seq: s},
			Payload: fmt.Sprintf("payload-%d", s),
			HasBody: true,
		})
	}
	return out
}

// mkCheckpoint builds a real storage checkpoint at the given index.
func mkCheckpoint(index int64) *storage.Checkpoint {
	s := storage.NewStore()
	for i := int64(1); i <= index; i++ {
		s.InstallCommit(i, []storage.ClassKeyValue{
			{Partition: "p", Key: storage.Key(fmt.Sprintf("k%d", i%4)), Value: storage.Int64Value(i)},
		})
	}
	return s.CheckpointAt(index)
}

func TestFetchTailOnly(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	src := &fakeSource{entries: mkEntries(1, 10), oldest: 1, stage: 6, resume: 3}
	donor := NewServer(hub.Endpoint(1), src, nil)
	donor.Start()
	defer donor.Stop()

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 4, []transport.NodeID{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Mode != TailOnly || xfer.Donor != 1 || xfer.Base != 4 {
		t.Fatalf("transfer = %+v", xfer)
	}
	if xfer.Checkpoint != nil {
		t.Fatal("tail-only transfer carried a checkpoint")
	}
	if len(xfer.Join.Backlog) != 6 || xfer.Join.Backlog[0].Seq != 5 || xfer.Join.Backlog[5].Seq != 10 {
		t.Fatalf("backlog = %+v", xfer.Join.Backlog)
	}
	if xfer.Join.StartStage != 6 {
		t.Fatalf("StartStage = %d, want 6", xfer.Join.StartStage)
	}
	if xfer.Join.ResumeSeq != 3+ResumeSeqSlack {
		t.Fatalf("ResumeSeq = %d, want %d", xfer.Join.ResumeSeq, 3+ResumeSeqSlack)
	}
}

// TestFetchCheckpointFallback: the donor's backlog ring no longer covers
// the joiner's gap, so the transfer falls back to checkpoint + tail, and
// the streamed checkpoint reconstructs the donor state bit-for-bit.
func TestFetchCheckpointFallback(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	ck := mkCheckpoint(7)
	src := &fakeSource{ck: ck, entries: mkEntries(8, 12), oldest: 8, stage: 9, resume: 0,
		delivered: []abcast.SeqRange{{Origin: 1, Lo: 1, Hi: 12}}}
	// Tiny chunks so the stream genuinely exercises multi-chunk framing.
	donor := NewServer(hub.Endpoint(1), src, nil)
	donor.chunkBytes, donor.tailBatch = 64, 2
	donor.Start()
	defer donor.Stop()

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 2, []transport.NodeID{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Mode != CheckpointTail || xfer.Base != 7 {
		t.Fatalf("transfer mode=%v base=%d", xfer.Mode, xfer.Base)
	}
	if xfer.Checkpoint == nil || xfer.Checkpoint.Index != 7 {
		t.Fatalf("checkpoint = %+v", xfer.Checkpoint)
	}
	if len(xfer.Join.Backlog) != 5 || xfer.Join.Backlog[0].Seq != 8 {
		t.Fatalf("backlog = %+v", xfer.Join.Backlog)
	}
	// What the donor had delivered, below the checkpoint too, comes with
	// the backlog: all the joiner will know of those messages.
	if !slices.Equal(xfer.Join.Delivered, src.delivered) {
		t.Fatalf("Delivered = %v, want %v", xfer.Join.Delivered, src.delivered)
	}
	// The received checkpoint installs to exactly the donor state.
	want, got := storage.NewStore(), storage.NewStore()
	want.InstallCheckpoint(ck)
	got.InstallCheckpoint(xfer.Checkpoint)
	if want.Digest() != got.Digest() {
		t.Fatal("streamed checkpoint digest != donor checkpoint digest")
	}
}

// scriptDonor runs a hand-driven donor on ep: it answers the first
// JoinReq by calling script, and records whether an Abort arrived.
func scriptDonor(ep transport.Endpoint, script func(joiner transport.NodeID, req JoinReq), aborted chan<- uint64) {
	in := ep.Subscribe(StreamReq)
	go func() {
		for env := range in {
			switch m := env.Msg.(type) {
			case JoinReq:
				script(env.From, m)
			case Abort:
				select {
				case aborted <- m.Xfer:
				default:
				}
			}
		}
	}()
}

// TestFetchFailoverOnTruncatedStream: the first donor dies mid-stream
// (silence after one chunk); the joiner times out, aborts, and fails
// over to the second donor.
func TestFetchFailoverOnTruncatedStream(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	aborted := make(chan uint64, 1)
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		_ = hub.Endpoint(1).Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		data := []byte("partial checkpoint bytes")
		_ = hub.Endpoint(1).Send(joiner, StreamXfer, CkptChunk{
			Xfer: req.Xfer, Seq: 0, Data: data, CRC: crc32.Checksum(data, castagnoli),
		})
		// ... and silence: the donor died mid-transfer.
	}, aborted)
	good := &fakeSource{entries: mkEntries(1, 6), oldest: 1, stage: 4}
	donor2 := NewServer(hub.Endpoint(2), good, nil)
	donor2.Start()
	defer donor2.Stop()

	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1, 2},
		Options{respTimeout: time.Second, chunkTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Donor != 2 || xfer.Mode != TailOnly || len(xfer.Join.Backlog) != 6 {
		t.Fatalf("transfer = %+v", xfer)
	}
	select {
	case <-aborted:
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned donor never received Abort")
	}
}

// TestFetchFailoverOnCorruptChunk: a CRC-corrupt chunk abandons the
// donor immediately (no timeout) and fails over.
func TestFetchFailoverOnCorruptChunk(t *testing.T) {
	hub := transport.NewHub(3)
	defer hub.Close()
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		_ = hub.Endpoint(1).Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		_ = hub.Endpoint(1).Send(joiner, StreamXfer, CkptChunk{
			Xfer: req.Xfer, Seq: 0, Data: []byte("corrupted"), CRC: 0xdeadbeef, Last: true,
		})
	}, make(chan uint64, 1))
	good := &fakeSource{entries: mkEntries(1, 3), oldest: 1, stage: 2}
	donor2 := NewServer(hub.Endpoint(2), good, nil)
	donor2.Start()
	defer donor2.Stop()

	start := time.Now()
	xfer, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1, 2},
		Options{respTimeout: 5 * time.Second, chunkTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if xfer.Donor != 2 {
		t.Fatalf("donor = %v, want 2", xfer.Donor)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("corrupt chunk took the timeout path instead of failing fast")
	}
}

// TestFetchCorruptChunkErrorSurfaces: with no fallback donor the CRC
// failure is reported, not mistaken for success.
func TestFetchCorruptChunkErrorSurfaces(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		_ = hub.Endpoint(1).Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: CheckpointTail})
		_ = hub.Endpoint(1).Send(joiner, StreamXfer, CkptChunk{
			Xfer: req.Xfer, Seq: 0, Data: []byte("x"), CRC: 1, Last: true,
		})
	}, make(chan uint64, 1))
	_, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1},
		Options{respTimeout: 2 * time.Second, chunkTimeout: 2 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("err = %v, want CRC mismatch", err)
	}
}

// TestFetchBacklogGapRejected: a donor whose tail skips positions is
// rejected (the assembled state would silently miss transactions).
func TestFetchBacklogGapRejected(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	scriptDonor(hub.Endpoint(1), func(joiner transport.NodeID, req JoinReq) {
		ep := hub.Endpoint(1)
		_ = ep.Send(joiner, StreamXfer, JoinResp{Xfer: req.Xfer, Mode: TailOnly})
		gappy := []abcast.DefEntry{{Seq: 1}, {Seq: 3}} // 2 is missing
		_ = ep.Send(joiner, StreamXfer, TailChunk{Xfer: req.Xfer, Seq: 0, Entries: gappy})
		_ = ep.Send(joiner, StreamXfer, Done{Xfer: req.Xfer, StartStage: 2, Chunks: 1, Frontier: 3})
	}, make(chan uint64, 1))
	_, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1},
		Options{respTimeout: 2 * time.Second, chunkTimeout: 2 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "backlog gap") {
		t.Fatalf("err = %v, want backlog gap", err)
	}
}

// TestServerBoundsCheckpointPin: a checkpoint capture that cannot
// complete (frontier never reached — e.g. the joiner raced a donor that
// is itself wedged) is cancelled at the server's deadline, so donor
// versions are not pinned indefinitely, and the joiner hears a terminal
// error instead of hanging.
func TestServerBoundsCheckpointPin(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	observed := make(chan error, 1)
	src := &fakeSource{oldest: 100, blockCkpt: observed} // everything pruned -> checkpoint mode
	donor := NewServer(hub.Endpoint(1), src, nil)
	donor.ckptTimeout = 100 * time.Millisecond
	donor.Start()
	defer donor.Stop()

	_, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1},
		Options{respTimeout: 2 * time.Second, chunkTimeout: 2 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "donor aborted") {
		t.Fatalf("err = %v, want donor aborted", err)
	}
	select {
	case cerr := <-observed:
		if !errors.Is(cerr, context.DeadlineExceeded) {
			t.Fatalf("checkpoint ctx error = %v, want deadline exceeded", cerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("donor checkpoint was never cancelled")
	}
	// Generous deadline: under -race on a loaded runner the server
	// goroutine can take a while to unwind after cancellation.
	testutil.Eventually(t, 10*time.Second, "donor to deregister the transfer", func() bool {
		return donor.Serving() == 0
	})
}

// TestAbortCancelsDonorCheckpoint: a joiner that gives up mid-transfer
// (here: its chunk timeout fires while the donor's checkpoint capture
// is stuck) sends Abort, which cancels the donor's capture context well
// before the donor's own generous deadline.
func TestAbortCancelsDonorCheckpoint(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	observed := make(chan error, 1)
	src := &fakeSource{oldest: 100, blockCkpt: observed}
	donor := NewServer(hub.Endpoint(1), src, nil)
	donor.ckptTimeout = time.Minute
	donor.Start()
	defer donor.Stop()

	_, err := Fetch(context.Background(), hub.Endpoint(0), 0, []transport.NodeID{1},
		Options{respTimeout: 2 * time.Second, chunkTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("fetch against a wedged donor succeeded")
	}
	select {
	case cerr := <-observed:
		if !errors.Is(cerr, context.Canceled) {
			t.Fatalf("checkpoint ctx error = %v, want canceled (Abort)", cerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not cancel the donor's checkpoint capture")
	}
}

// TestEncodeDecodeRoundTrip pins the wire checkpoint encoding to the
// on-disk one.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	ck := mkCheckpoint(9)
	data, err := recovery.EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	back, err := recovery.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	want, got := storage.NewStore(), storage.NewStore()
	want.InstallCheckpoint(ck)
	got.InstallCheckpoint(back)
	if back.Index != ck.Index || want.Digest() != got.Digest() {
		t.Fatal("round-tripped checkpoint differs")
	}
	// Corruption anywhere in the body is caught by the trailer.
	data[len(data)/2] ^= 0x40
	if _, err := recovery.DecodeCheckpoint(data); err == nil {
		t.Fatal("corrupt checkpoint decoded")
	}
}
