// Package recovery binds the write-ahead log (internal/wal) and storage
// checkpoints into the durability subsystem of one replica: the paper
// assumes every site can "use traditional recovery techniques" (Section
// 3.2) to survive crashes, and this package is that machinery.
//
// A site's data directory holds:
//
//	wal/                      segmented commit log (internal/wal)
//	checkpoint-<index>.ckpt   gob-encoded storage.Checkpoint + CRC-32C
//
// Cold restart (Recover) installs the newest valid checkpoint and
// replays the log tail above it; replay is idempotent, so a checkpoint
// racing a crash never double-applies. Periodic checkpoints
// (TryBeginCheckpoint/Checkpoint, driven by the replica's commit hook)
// bound replay:
// after a checkpoint at index C succeeds, segments entirely at or below
// C are deleted and older checkpoint files removed.
package recovery

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"otpdb/internal/metrics"
	"otpdb/internal/storage"
	"otpdb/internal/wal"
)

const (
	walSubdir  = "wal"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

// Options configures a site's durability.
type Options struct {
	// Sync is the WAL fsync policy (default wal.SyncGrouped).
	Sync wal.SyncPolicy
	// CheckpointEvery is the number of commits between checkpoints
	// (default 4096; negative disables periodic checkpoints).
	CheckpointEvery int
	// Metrics, when non-nil, registers WAL and checkpoint telemetry
	// under the scope's labels.
	Metrics *metrics.Scope
}

// DefaultCheckpointEvery is the commit count between checkpoints when
// Options.CheckpointEvery is 0.
const DefaultCheckpointEvery = 4096

// Durability is one site's open durability state: the WAL plus the
// checkpoint directory. Safe for concurrent use.
type Durability struct {
	dir  string
	opts Options
	log  *wal.Log

	// checkpointing serializes background checkpoints (at most one in
	// flight; extra triggers are dropped, not queued).
	checkpointing atomic.Bool
	ckpts         *metrics.Counter

	mu     sync.Mutex
	closed bool
}

// Open opens (or creates) a site's durability directory.
func Open(dir string, opts Options) (*Durability, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	log, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{Sync: opts.Sync, Metrics: opts.Metrics})
	if err != nil {
		return nil, err
	}
	d := &Durability{dir: dir, opts: opts, log: log}
	d.ckpts = opts.Metrics.Counter("wal_checkpoint_total")
	return d, nil
}

// CheckpointEvery reports the configured commit count between
// checkpoints (<= 0 when periodic checkpoints are disabled).
func (d *Durability) CheckpointEvery() int { return d.opts.CheckpointEvery }

// Recover rebuilds the committed state into store: the newest valid
// checkpoint is installed (corrupt ones fall back to older), then the
// log tail above it is replayed. It returns the definitive index the
// store is recovered to — the replica resumes counting from there.
//
// Non-conflicting commits append slightly out of TOIndex order, so a
// crash can leave the log holding index N+1 without N. Resuming past
// such a hole would lose transaction N forever (replay, rejoin
// backlogs and the commit counters all start above the resume point),
// so recovery first finds the contiguous frontier and installs only
// records at or below it. Orphan records above the hole are left in
// the log and re-covered by whatever refills the gap — a statex
// backlog on live rejoin, or the group's replay on a cold restart —
// both idempotent against the duplicate.
func (d *Durability) Recover(store *storage.Store) (int64, error) {
	base := int64(0)
	if ck, ok, err := d.latestCheckpoint(); err != nil {
		return 0, err
	} else if ok {
		store.InstallCheckpoint(ck)
		base = ck.Index
	}
	seen := make(map[int64]bool)
	if err := d.log.Replay(base, func(rec wal.Record) error {
		seen[rec.TOIndex] = true
		return nil
	}); err != nil {
		return 0, err
	}
	last := base
	for seen[last+1] {
		last++
	}
	err := d.log.Replay(base, func(rec wal.Record) error {
		if rec.TOIndex <= last {
			store.InstallCommit(rec.TOIndex, rec.Writes)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return last, nil
}

// Append logs one commit, honouring the configured sync policy. An
// acknowledged commit is durable per that policy's contract.
func (d *Durability) Append(rec wal.Record) error {
	return d.log.Append(rec)
}

// LastIndex reports the largest logged or recovered definitive index.
func (d *Durability) LastIndex() int64 { return d.log.LastIndex() }

// Sync flushes the WAL.
func (d *Durability) Sync() error { return d.log.Sync() }

// Close flushes and closes the WAL. Idempotent.
func (d *Durability) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	return d.log.Close()
}

// TryBeginCheckpoint claims the single background-checkpoint slot. The
// caller must call Checkpoint (which releases it) when it wins, or
// ReleaseCheckpoint when the snapshot attempt fails.
func (d *Durability) TryBeginCheckpoint() bool {
	return d.checkpointing.CompareAndSwap(false, true)
}

// ReleaseCheckpoint releases the slot claimed by TryBeginCheckpoint
// without writing a checkpoint.
func (d *Durability) ReleaseCheckpoint() { d.checkpointing.Store(false) }

// Checkpoint durably saves ck, then bounds the log: WAL segments whose
// records are all covered by ck and checkpoint files older than ck are
// deleted. It releases the slot claimed by TryBeginCheckpoint.
func (d *Durability) Checkpoint(ck *storage.Checkpoint) error {
	defer d.checkpointing.Store(false)
	d.ckpts.Inc()
	return d.ResetTo(ck)
}

// ResetTo reinitializes the directory to exactly ck — the save/bound/
// prune sequence shared with Checkpoint, and the rejoin path: the store
// content came from a peer, so the local log history below it is
// obsolete. Existing WAL segments are bounded against ck.Index and
// subsequent Appends continue above it.
func (d *Durability) ResetTo(ck *storage.Checkpoint) error {
	if err := saveCheckpoint(d.dir, ck); err != nil {
		return err
	}
	if err := d.log.TruncateBelow(ck.Index); err != nil {
		return err
	}
	return d.pruneCheckpoints(ck.Index)
}

// ckptFile is one on-disk checkpoint.
type ckptFile struct {
	index int64
	path  string
}

// checkpointFiles lists checkpoint files in ascending index order.
func (d *Durability) checkpointFiles() ([]ckptFile, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	var out []ckptFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		idx, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, ckptFile{index: idx, path: filepath.Join(d.dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out, nil
}

// latestCheckpoint loads the newest checkpoint that validates; corrupt
// files (torn rename, bit rot) are skipped in favour of older ones.
func (d *Durability) latestCheckpoint() (*storage.Checkpoint, bool, error) {
	files, err := d.checkpointFiles()
	if err != nil {
		return nil, false, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		ck, err := loadCheckpoint(files[i].path)
		if err == nil {
			return ck, true, nil
		}
	}
	return nil, false, nil
}

// pruneCheckpoints removes checkpoint files older than keepIndex.
func (d *Durability) pruneCheckpoints(keepIndex int64) error {
	files, err := d.checkpointFiles()
	if err != nil {
		return err
	}
	for _, f := range files {
		if f.index < keepIndex {
			if err := os.Remove(f.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("recovery: prune checkpoint: %w", err)
			}
		}
	}
	return nil
}

// castagnoli matches the WAL's CRC flavour.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Gob collapses zero-length byte slices to nil on decode, but the store
// distinguishes an empty committed value (key present) from nil (key
// absent) — the WAL preserves the distinction explicitly, and the
// checkpoint must too. The wire structs below carry a presence flag and
// are converted at the save/load boundary.
type (
	ckptWire struct {
		Index      int64
		Partitions []ckptWirePartition
	}
	ckptWirePartition struct {
		Partition     string
		LastCommitted int64
		Keys          []ckptWireKV
	}
	ckptWireKV struct {
		Key      string
		TOIndex  int64
		HasValue bool
		Value    []byte
	}
)

func toWire(ck *storage.Checkpoint) ckptWire {
	w := ckptWire{Index: ck.Index}
	for _, pc := range ck.Partitions {
		wp := ckptWirePartition{
			Partition:     string(pc.Partition),
			LastCommitted: pc.LastCommitted,
		}
		for _, kv := range pc.Keys {
			wp.Keys = append(wp.Keys, ckptWireKV{
				Key:      string(kv.Key),
				TOIndex:  kv.TOIndex,
				HasValue: kv.Value != nil,
				Value:    kv.Value,
			})
		}
		w.Partitions = append(w.Partitions, wp)
	}
	return w
}

func fromWire(w ckptWire) *storage.Checkpoint {
	ck := &storage.Checkpoint{Index: w.Index}
	for _, wp := range w.Partitions {
		pc := storage.PartitionCheckpoint{
			Partition:     storage.Partition(wp.Partition),
			LastCommitted: wp.LastCommitted,
		}
		for _, kv := range wp.Keys {
			v := storage.Value(kv.Value)
			if kv.HasValue && v == nil {
				v = storage.Value{} // gob collapsed empty to nil; restore presence
			} else if !kv.HasValue {
				v = nil
			}
			pc.Keys = append(pc.Keys, storage.KeyVersion{
				Key:     storage.Key(kv.Key),
				TOIndex: kv.TOIndex,
				Value:   v,
			})
		}
		ck.Partitions = append(ck.Partitions, pc)
	}
	return ck
}

// EncodeCheckpointTo streams a checkpoint in the durable on-disk
// format: gob body + CRC-32C trailer. Checkpoint files and the statex
// wire transfer share this encoding, so a checkpoint received from a
// peer is bit-identical to one written locally.
func EncodeCheckpointTo(w io.Writer, ck *storage.Checkpoint) error {
	crc := crc32.New(castagnoli)
	if err := gob.NewEncoder(io.MultiWriter(w, crc)).Encode(toWire(ck)); err != nil {
		return fmt.Errorf("recovery: encode checkpoint: %w", err)
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return nil
}

// EncodeCheckpoint is EncodeCheckpointTo into memory, for callers that
// chunk the encoded form (the statex wire path).
func EncodeCheckpoint(ck *storage.Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeCheckpointTo(&buf, ck); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint validates and decodes the EncodeCheckpoint format.
func DecodeCheckpoint(data []byte) (*storage.Checkpoint, error) {
	if len(data) < 4 {
		return nil, errors.New("recovery: checkpoint too short")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(trailer) {
		return nil, errors.New("recovery: checkpoint CRC mismatch")
	}
	var w ckptWire
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&w); err != nil {
		return nil, fmt.Errorf("recovery: decode checkpoint: %w", err)
	}
	return fromWire(w), nil
}

// saveCheckpoint writes a checkpoint durably: the encoded form streamed
// into a temp file (no full in-memory copy), fsync, then atomic rename.
func saveCheckpoint(dir string, ck *storage.Checkpoint) error {
	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	tmpName := tmp.Name()
	defer func() { _ = os.Remove(tmpName) }()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err := EncodeCheckpointTo(bw, ck); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("recovery: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("recovery: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, ck.Index, ckptSuffix))
	if err := os.Rename(tmpName, final); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return syncDir(dir)
}

// loadCheckpoint reads and validates one checkpoint file.
func loadCheckpoint(path string) (*storage.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return DecodeCheckpoint(data)
}

// syncDir fsyncs a directory so renames are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = f.Close() }()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("recovery: sync dir: %w", err)
	}
	return nil
}
