package statex

import (
	"slices"
	"testing"

	"otpdb/internal/abcast"
	"otpdb/internal/storage"
)

// fuzzXfer is the transfer every fuzzed stream belongs to.
const fuzzXfer = 42

// fuzzStream is one valid donor stream and the transfer it assembles to.
type fuzzStream struct {
	mode Mode
	from int64 // what the joiner advertised
	msgs []any // JoinResp, CkptChunks, TailChunks, Done, in send order
	ck   *storage.Checkpoint
	base int64
	done Done
}

// fuzzStreams builds one stream per mode with the scripted donors'
// helpers: a tail-only transfer of 5..10 to a joiner at 4, and a
// checkpoint at 7 plus 8..12 to a joiner at 2, both with tail chunks of
// two entries and a Done that carries delivered sets.
func fuzzStreams(t testing.TB) []fuzzStream {
	delivered := []abcast.SeqRange{{Origin: 1, Lo: 1, Hi: 12}, {Origin: 2, Lo: 1, Hi: 3}}
	tailChunks := func(entries []abcast.DefEntry) []any {
		var out []any
		for seq := 0; len(entries) > 0; seq++ {
			n := min(2, len(entries))
			out = append(out, TailChunk{Xfer: fuzzXfer, Seq: seq, Entries: entries[:n]})
			entries = entries[n:]
		}
		return out
	}

	tail := fuzzStream{mode: TailOnly, from: 4, base: 4,
		done: Done{Xfer: fuzzXfer, StartStage: 11, ResumeSeq: 3, Delivered: delivered, Chunks: 3, Frontier: 10}}
	tail.msgs = append([]any{JoinResp{Xfer: fuzzXfer, Mode: TailOnly}}, tailChunks(mkEntries(5, 10))...)
	tail.msgs = append(tail.msgs, tail.done)

	ck := mkCheckpoint(7)
	ckpt := fuzzStream{mode: CheckpointTail, from: 2, ck: ck, base: 7,
		done: Done{Xfer: fuzzXfer, StartStage: 13, ResumeSeq: 4, Delivered: delivered, Chunks: 3, Frontier: 12}}
	ckpt.msgs = []any{JoinResp{Xfer: fuzzXfer, Mode: CheckpointTail}}
	for _, c := range ckptChunks(t, fuzzXfer, ck, 64) {
		ckpt.msgs = append(ckpt.msgs, c)
	}
	ckpt.msgs = append(ckpt.msgs, tailChunks(mkEntries(8, 12))...)
	ckpt.msgs = append(ckpt.msgs, ckpt.done)
	return []fuzzStream{tail, ckpt}
}

// FuzzStreamReassembly feeds a donor stream, reordered, duplicated and
// damaged by the input, to one attempt the way fetchFrom does. Input
// layout: byte 0 picks the mode (bit 0), arms a one-byte flip (bit 1)
// and a wrong Xfer (bit 2); byte 1 is the message the flip damages and
// byte 2 where; byte 3 is the message sent with the wrong Xfer. Every
// further pair of bytes edits the delivery order, which starts as the
// send order: swap, duplicate, drop or move a message. A damaged message
// is damaged in every copy.
//
// The attempt must never panic; a stream that lacks a message or carries
// a damaged one must never assemble; a complete undamaged stream must
// assemble, whatever its order; and whatever assembles is the unfuzzed
// transfer.
func FuzzStreamReassembly(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0x04, 9, 0x05, 0})          // swap, duplicate
	f.Add([]byte{1, 0, 0, 0, 0x04, 9, 0x05, 0, 0x0e, 3}) // swap, duplicate, drop
	f.Add([]byte{0, 0, 0, 0, 0x03, 4, 0x04, 3})          // JoinResp last, Done before a chunk
	f.Add([]byte{3, 2, 17, 0, 0x03, 5})                  // flip a checkpoint chunk, move
	f.Add([]byte{2, 3, 9, 0})                            // flip a tail entry's position
	f.Add([]byte{5, 0, 0, 4, 0x1d, 0x1f, 0x01, 0x11})    // wrong Xfer, duplicates
	streams := fuzzStreams(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		s := streams[data[0]&1]
		msgs := slices.Clone(s.msgs)
		n := len(msgs)
		damaged := false
		if data[0]&2 != 0 {
			damaged = flip(msgs, int(data[1])%n, int(data[2]))
		}
		if data[0]&4 != 0 {
			msgs[int(data[3])%n] = withXfer(msgs[int(data[3])%n], fuzzXfer+1)
			damaged = true
		}

		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for ops := data[4:]; len(ops) >= 2 && len(order) > 0; ops = ops[2:] {
			a, b := int(ops[0]>>2)%len(order), int(ops[1])%len(order)
			switch ops[0] & 3 {
			case 0:
				order[a], order[b] = order[b], order[a]
			case 1:
				if len(order) < 4*n {
					order = slices.Insert(order, b, order[a])
				}
			case 2:
				order = slices.Delete(order, a, a+1)
			case 3:
				m := order[a]
				rest := slices.Delete(order, a, a+1)
				order = slices.Insert(rest, int(ops[1])%(len(rest)+1), m)
			}
		}
		complete := true
		for i := range n {
			complete = complete && slices.Contains(order, i)
		}

		st := &attempt{donor: 1, from: s.from, m: newXferMetrics(nil)}
		var got *Transfer
		for _, i := range order {
			done, final, err := st.onMessage(msgs[i], fuzzXfer)
			if err != nil {
				break
			}
			if final {
				got, _ = st.assemble(done)
				break
			}
		}

		switch {
		case got == nil && complete && !damaged:
			t.Fatalf("complete stream in order %v did not assemble", order)
		case got != nil && (!complete || damaged):
			t.Fatalf("stream in order %v (complete %v, damaged %v) assembled", order, complete, damaged)
		case got != nil:
			checkTransfer(t, s, got)
		}
	})
}

// flip damages one byte of message i, if it is a chunk: a byte of a
// checkpoint chunk's data, or a byte of a tail entry's position. It
// reports whether it damaged anything.
func flip(msgs []any, i, at int) bool {
	switch m := msgs[i].(type) {
	case CkptChunk:
		m.Data = slices.Clone(m.Data)
		m.Data[at%len(m.Data)] ^= 0xff
		msgs[i] = m
	case TailChunk:
		m.Entries = slices.Clone(m.Entries)
		m.Entries[at/8%len(m.Entries)].Seq ^= 0xff << (8 * (at % 8))
		msgs[i] = m
	default:
		return false
	}
	return true
}

// withXfer returns msg addressed to transfer x.
func withXfer(msg any, x uint64) any {
	switch m := msg.(type) {
	case JoinResp:
		m.Xfer = x
		return m
	case CkptChunk:
		m.Xfer = x
		return m
	case TailChunk:
		m.Xfer = x
		return m
	case Done:
		m.Xfer = x
		return m
	}
	return msg
}

// checkTransfer holds an assembled transfer to the unfuzzed one.
func checkTransfer(t *testing.T, s fuzzStream, got *Transfer) {
	t.Helper()
	if got.Mode != s.mode || got.Base != s.base || (got.Checkpoint == nil) != (s.ck == nil) {
		t.Fatalf("transfer mode %v base %d checkpoint %v, want %v %d %v",
			got.Mode, got.Base, got.Checkpoint != nil, s.mode, s.base, s.ck != nil)
	}
	if s.ck != nil {
		want, have := storage.NewStore(), storage.NewStore()
		want.InstallCheckpoint(s.ck)
		have.InstallCheckpoint(got.Checkpoint)
		if got.Checkpoint.Index != s.ck.Index || have.Digest() != want.Digest() {
			t.Fatalf("checkpoint at %d differs from the donor's at %d", got.Checkpoint.Index, s.ck.Index)
		}
	}
	if int64(len(got.Join.Backlog)) != s.done.Frontier-s.base {
		t.Fatalf("backlog has %d entries, want %d", len(got.Join.Backlog), s.done.Frontier-s.base)
	}
	for i, ent := range got.Join.Backlog {
		if ent.Seq != uint64(s.base)+1+uint64(i) {
			t.Fatalf("backlog[%d] has position %d", i, ent.Seq)
		}
	}
	if got.Join.StartStage != s.done.StartStage || got.Join.ResumeSeq != s.done.ResumeSeq+ResumeSeqSlack ||
		!slices.Equal(got.Join.Delivered, s.done.Delivered) {
		t.Fatalf("join state %d/%d/%v, want %d/%d/%v", got.Join.StartStage, got.Join.ResumeSeq, got.Join.Delivered,
			s.done.StartStage, s.done.ResumeSeq+ResumeSeqSlack, s.done.Delivered)
	}
}
