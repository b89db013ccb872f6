package recovery

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"otpdb/internal/storage"
)

// fuzzCheckpoints is what FuzzCheckpointDecode starts from: the
// encodings of checkpoints taken of small random stores, each with a
// partition that holds no key and a key whose value is nil.
func fuzzCheckpoints(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(1))
	values := []storage.Value{nil, {}, storage.Int64Value(7), storage.StringValue("v")}
	stores := []*storage.Store{storage.NewStore()}
	for range 6 {
		s := storage.NewStore()
		tx, err := s.Begin("empty", storage.Buffered)
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Abort()
		s.Load("seeded", "nil", nil)
		for i := int64(1); i <= int64(rng.Intn(10)); i++ {
			s.InstallCommit(i, []storage.ClassKeyValue{{
				Partition: storage.Partition(fmt.Sprintf("p%d", rng.Intn(3))),
				Key:       storage.Key(fmt.Sprintf("k%d", rng.Intn(4))),
				Value:     values[rng.Intn(len(values))],
			}})
		}
		stores = append(stores, s)
	}
	var out [][]byte
	for _, s := range stores {
		data, err := EncodeCheckpoint(s.CheckpointAt(int64(rng.Intn(10))))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzCheckpointDecode feeds arbitrary bytes to DecodeCheckpoint, as a
// checkpoint file or a state transfer would. It must return an error or
// a checkpoint and never panic. Each input is tried as it is and with its
// last four bytes replaced by the checksum of the rest, so that mutations
// reach the gob body behind the CRC. A decoded checkpoint, installed into
// a fresh store and taken again at its index, encodes to the same bytes
// as the decoded one whenever that is canonical, as every CheckpointAt
// is; otherwise the round trip yields a canonical checkpoint that the
// next round trip leaves as it is.
func FuzzCheckpointDecode(f *testing.F) {
	for _, seed := range fuzzCheckpoints(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		inputs := [][]byte{in}
		if len(in) >= 4 {
			body := in[:len(in)-4]
			inputs = append(inputs, binary.BigEndian.AppendUint32(slices.Clone(body), crc32.Checksum(body, castagnoli)))
		}
		for _, data := range inputs {
			ck, err := DecodeCheckpoint(data)
			if err != nil {
				if ck != nil {
					t.Fatalf("error %v with a checkpoint", err)
				}
				continue
			}
			again := reinstall(t, ck)
			if canonical(ck) {
				if want := encode(t, ck); !bytes.Equal(again, want) {
					t.Fatalf("checkpoint %+v does not survive install and capture", ck)
				}
				continue
			}
			back, err := DecodeCheckpoint(again)
			if err != nil {
				t.Fatalf("captured checkpoint does not decode: %v", err)
			}
			if !canonical(back) || !bytes.Equal(reinstall(t, back), again) {
				t.Fatalf("round trip of %+v is not a fixpoint: %+v", ck, back)
			}
		}
	})
}

// reinstall installs ck into a fresh store and encodes that store's
// checkpoint at ck.Index.
func reinstall(t *testing.T, ck *storage.Checkpoint) []byte {
	s := storage.NewStore()
	s.InstallCheckpoint(ck)
	return encode(t, s.CheckpointAt(ck.Index))
}

func encode(t *testing.T, ck *storage.Checkpoint) []byte {
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// canonical reports whether ck has the shape CheckpointAt gives:
// partitions and their keys strictly ascending, no version above the
// index, and each floor what a store holding it reports at the index.
func canonical(ck *storage.Checkpoint) bool {
	for i, pc := range ck.Partitions {
		if i > 0 && ck.Partitions[i-1].Partition >= pc.Partition {
			return false
		}
		if pc.LastCommitted != min(max(pc.LastCommitted, 0), ck.Index) {
			return false
		}
		for j, kv := range pc.Keys {
			if (j > 0 && pc.Keys[j-1].Key >= kv.Key) || kv.TOIndex > ck.Index {
				return false
			}
		}
	}
	return true
}
