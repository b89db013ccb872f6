// Package recovery binds the write-ahead log (internal/wal) and storage
// checkpoints into the durability subsystem of one replica: the paper
// assumes every site can "use traditional recovery techniques" (Section
// 3.2) to survive crashes, and this package is that machinery.
//
// A site's data directory holds:
//
//	wal/                      segmented commit log (internal/wal)
//	checkpoint-<index>.ckpt   storage.Checkpoint + CRC-32C (EncodeCheckpointTo)
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
	"otpdb/internal/transport"
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
// store is recovered to — the replica resumes counting from there. A
// fallback that cannot reach the index of a newer, unreadable checkpoint
// (the log below it may be gone) is an error naming that file.
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
	ck, unreadable, err := d.latestCheckpoint()
	if err != nil {
		return 0, err
	}
	if ck != nil {
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
	if unreadable.err != nil && last < unreadable.index {
		return 0, fmt.Errorf("recovery: checkpoint %s is unreadable (%w), and the log from index %d reaches only %d",
			unreadable.path, unreadable.err, base, last)
	}
	err = d.log.Replay(base, func(rec wal.Record) error {
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
	err   error // why it could not be loaded, once tried
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
// files (torn rename, bit rot, an older format) are skipped in favour of
// older ones. It also returns the newest file it skipped, if any.
func (d *Durability) latestCheckpoint() (*storage.Checkpoint, ckptFile, error) {
	files, err := d.checkpointFiles()
	if err != nil {
		return nil, ckptFile{}, err
	}
	var unreadable ckptFile
	for i := len(files) - 1; i >= 0; i-- {
		ck, err := loadCheckpoint(files[i].path)
		if err == nil {
			return ck, unreadable, nil
		}
		if unreadable.err == nil {
			files[i].err = err
			unreadable = files[i]
		}
	}
	return nil, unreadable, nil
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

// ckptMagic opens every checkpoint body: a file written in any other
// format (gob, before wire version 2) is refused, not misread.
const ckptMagic = "OTPC\x01"

// EncodeCheckpointTo streams a checkpoint in the durable on-disk format,
// one partition at a time: ckptMagic, the index (varint), the partition
// count, and per partition its name, floor (varint) and key count, each
// key with its version (varint) and its value as
// transport.AppendNullable writes it (uvarint(len+1), 0 for nil); then
// the CRC-32C of all that, big-endian. Checkpoint files and the statex
// wire transfer share this encoding, so a checkpoint received from a
// peer is bit-identical to one written locally.
func EncodeCheckpointTo(w io.Writer, ck *storage.Checkpoint) error {
	crc := crc32.New(castagnoli)
	body := io.MultiWriter(w, crc)
	b := binary.AppendUvarint(binary.AppendVarint([]byte(ckptMagic), ck.Index), uint64(len(ck.Partitions)))
	for i := 0; ; i++ {
		if _, err := body.Write(b); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		if i == len(ck.Partitions) {
			break
		}
		pc := ck.Partitions[i]
		b = binary.AppendVarint(transport.AppendString(b[:0], pc.Partition), pc.LastCommitted)
		b = binary.AppendUvarint(b, uint64(len(pc.Keys)))
		for _, kv := range pc.Keys {
			b = transport.AppendNullable(binary.AppendVarint(transport.AppendString(b, kv.Key), kv.TOIndex), kv.Value)
		}
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(b[:0], crc.Sum32())); err != nil {
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
	r := transport.NewWireReader(body)
	if string(r.Take(len(ckptMagic))) != ckptMagic {
		return nil, errors.New("recovery: not a checkpoint of this format (written before wire version 2?)")
	}
	ck := &storage.Checkpoint{Index: r.Varint()}
	if n := r.Count(3); n > 0 { // name, floor and key count: a byte each or more
		ck.Partitions = make([]storage.PartitionCheckpoint, n)
		for i := range ck.Partitions {
			pc := &ck.Partitions[i]
			pc.Partition, pc.LastCommitted = storage.Partition(r.String()), r.Varint()
			if n := r.Count(3); n > 0 { // key, version and value: a byte each or more
				pc.Keys = make([]storage.KeyVersion, n)
				for j := range pc.Keys {
					pc.Keys[j] = storage.KeyVersion{Key: storage.Key(r.String()), TOIndex: r.Varint(),
						Value: bytes.Clone(r.Nullable())}
				}
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("recovery: decode checkpoint: %w", err)
	}
	return ck, nil
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
