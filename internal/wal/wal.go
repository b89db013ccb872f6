// Package wal is the write-ahead commit log of the replicated database:
// an append-only, segmented, CRC-framed record of every definitive-order
// commit at one site. Together with periodic checkpoints
// (internal/recovery) it provides the "traditional recovery techniques"
// the paper assumes each site can use to survive crashes (Section 3.2).
//
// # Log contents
//
// One record per committed update transaction: its definitive (TO) index
// and its physical writes (partition-qualified key/value pairs). Logging
// physical writes rather than procedure invocations makes replay
// independent of the stored-procedure registry and idempotent — a record
// whose index a partition's committed floor already covers is skipped.
//
// # Format
//
// A log is a directory of segment files named wal-<firstIndex>.seg.
// Every segment starts with an 8-byte header ("OWAL" magic, version,
// reserved) followed by length-prefixed records:
//
//	[4B big-endian payload length][4B CRC-32C of payload][payload]
//
// The payload encodes the TO index, the write count, and each write as
// length-prefixed partition/key/value fields. A torn or corrupted record
// can only be the result of a crash mid-append, so Open truncates the
// tail at the first invalid record of the final segment (and refuses
// only on corruption in the middle of the log, which indicates media
// damage rather than a crash).
//
// # Durability policies
//
// Append durability is configurable: SyncEveryCommit fsyncs before
// Append returns (a commit acknowledged to a client is on disk),
// SyncGrouped batches fsyncs on a short timer (bounded loss window,
// near-in-memory throughput), SyncNever leaves flushing to the OS
// (survives process crashes, not machine crashes). Appends are
// serialized, so the durable prefix of the log is always a prefix of the
// append order — recovery never observes a record without its
// predecessors in append order.
package wal

import (
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
	"time"

	"otpdb/internal/metrics"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

// Sync policies.
const (
	// SyncEveryCommit fsyncs before Append returns: an acknowledged
	// commit is durable against machine crashes.
	SyncEveryCommit SyncPolicy = iota + 1
	// SyncGrouped fsyncs on a background timer (every 2 ms): commits
	// acknowledged within the last interval may be lost on a machine
	// crash, never on a process crash.
	SyncGrouped
	// SyncNever leaves flushing to the operating system.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryCommit:
		return "commit"
	case SyncGrouped:
		return "group"
	case SyncNever:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag values commit|group|off.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit":
		return SyncEveryCommit, nil
	case "group":
		return SyncGrouped, nil
	case "off":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want commit|group|off)", s)
	}
}

// Record is one logged commit: the transaction's definitive index and
// its physical writes.
type Record struct {
	// TOIndex is the definitive total-order index of the commit.
	TOIndex int64
	// Writes are the committed writes, grouped by partition.
	Writes []storage.ClassKeyValue
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy (default SyncGrouped).
	Sync SyncPolicy
	// Metrics, when non-nil, registers the log's runtime telemetry
	// (fsync latency, appends, segment rotations) under the scope's
	// labels.
	Metrics *metrics.Scope

	// segmentBytes, when positive, replaces the 4 MiB segment cap; set by
	// in-package tests only.
	segmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.segmentBytes <= 0 {
		o.segmentBytes = segmentCap
	}
	if o.Sync == 0 {
		o.Sync = SyncGrouped
	}
	return o
}

const (
	// segmentCap caps a segment file before rotation.
	segmentCap = 4 << 20
	// groupInterval is the SyncGrouped flush period.
	groupInterval = 2 * time.Millisecond
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	headerSize = 8
	frameSize  = 8 // length + CRC
	// maxRecordBytes bounds a single record frame; larger lengths in a
	// segment indicate corruption, not a huge record.
	maxRecordBytes = 64 << 20
)

var segMagic = [8]byte{'O', 'W', 'A', 'L', 1, 0, 0, 0}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a non-tail segment fails validation —
// damage that truncation cannot explain away.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// Telemetry (inert unregistered instruments without Options.Metrics).
	fsyncHist *metrics.Histogram
	appends   *metrics.Counter
	rotations *metrics.Counter

	mu        sync.Mutex
	f         *os.File // active segment
	size      int64    // bytes written to the active segment
	segName   int64    // numeric name of the active segment
	lastIndex int64    // largest TOIndex appended or recovered
	dirty     bool     // written since last fsync
	closed    bool

	stopGroup chan struct{}
	groupDone chan struct{}
}

// Open opens (or creates) the log in dir, validating every segment and
// truncating a torn or corrupted tail of the final segment.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.fsyncHist = opts.Metrics.Histogram("wal_fsync_seconds", "policy", opts.Sync.String())
	l.appends = opts.Metrics.Counter("wal_append_total")
	l.rotations = opts.Metrics.Counter("wal_segment_rotate_total")
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		last, validLen, verr := validateSegment(seg.path)
		if verr != nil {
			return nil, verr
		}
		if last > l.lastIndex {
			l.lastIndex = last
		}
		if fi, serr := os.Stat(seg.path); serr == nil && fi.Size() != validLen {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("%w: %s", ErrCorrupt, seg.path)
			}
			// Torn or corrupted tail from a crash mid-append: truncate to
			// the last valid record and carry on.
			if terr := os.Truncate(seg.path, validLen); terr != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", terr)
			}
		}
	}
	// Append to the last segment, or start the first one.
	if len(segs) > 0 {
		tail := segs[len(segs)-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size, l.segName = f, fi.Size(), tail.first
		if l.size < headerSize {
			// A crash mid-creation left the tail without its magic header
			// (truncated to zero above). Write the header now — records
			// appended to a headerless file would be discarded wholesale
			// by the next Open's validation.
			if _, err := f.Write(segMagic[:]); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.size = headerSize
			l.dirty = true
		}
	} else if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncGrouped {
		l.stopGroup = make(chan struct{})
		l.groupDone = make(chan struct{})
		go l.groupFlusher()
	}
	return l, nil
}

// segment is one on-disk segment file.
type segment struct {
	first int64 // first index the segment was opened for (from its name)
	path  string
}

// segments lists the log's segment files in index order.
func (l *Log) segments() ([]segment, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{first: first, path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// rotateLocked closes the active segment and opens a fresh one. The
// numeric name is strictly greater than every existing segment's —
// derived from the largest appended index but floored at the previous
// name + 1, because non-conflicting commits may append slightly out of
// TOIndex order and name-sorted order must equal append order (replay,
// tail-truncation and TruncateBelow all rely on it). Callers hold l.mu
// (or own the log exclusively during Open).
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: rotate sync: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: rotate close: %w", err)
		}
		l.f = nil
	}
	name := l.lastIndex + 1
	if name <= l.segName {
		name = l.segName + 1
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, name, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		return err
	}
	l.f, l.size, l.segName = f, headerSize, name
	l.dirty = true
	l.rotations.Inc()
	return nil
}

// timedSync fsyncs the active segment, feeding the latency histogram.
func (l *Log) timedSync() error {
	t0 := time.Now()
	err := l.f.Sync()
	l.fsyncHist.Observe(time.Since(t0))
	return err
}

// Append writes one record and applies the sync policy. Appends are
// serialized; with SyncEveryCommit the record is durable on return.
func (l *Log) Append(rec Record) error {
	buf := encodeRecord(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.size+int64(len(buf)) > l.opts.segmentBytes && l.size > headerSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	l.dirty = true
	l.appends.Inc()
	if rec.TOIndex > l.lastIndex {
		l.lastIndex = rec.TOIndex
	}
	if l.opts.Sync == SyncEveryCommit {
		if err := l.timedSync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.dirty = false
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.f == nil || !l.dirty {
		return nil
	}
	if err := l.timedSync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	return nil
}

// groupFlusher is the SyncGrouped background fsync loop.
func (l *Log) groupFlusher() {
	defer close(l.groupDone)
	t := time.NewTicker(groupInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stopGroup:
			return
		}
	}
}

// LastIndex reports the largest TOIndex appended or recovered.
func (l *Log) LastIndex() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastIndex
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.stopGroup != nil {
		close(l.stopGroup)
	}
	err := l.syncLocked()
	l.closed = true
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.mu.Unlock()
	if l.groupDone != nil {
		<-l.groupDone
	}
	return err
}

// Replay streams every record with TOIndex > from, in append order, to
// fn. Replay may run on an open log (it reads the segment files
// directly); callers recovering a store rely on InstallCommit's
// idempotence rather than on exclusivity.
func (l *Log) Replay(from int64, fn func(Record) error) error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := replaySegment(seg.path, from, fn); err != nil {
			return err
		}
	}
	return nil
}

// TruncateBelow deletes segments every record of which has TOIndex <=
// index — the log-bounding step after a checkpoint at index. The active
// segment is never deleted. Because non-conflicting commits may append
// slightly out of TOIndex order, each candidate is scanned for its
// actual maximum index rather than trusting the next segment's name.
//
// The scans run outside l.mu so a large accumulated log does not stall
// every concurrent Append for the duration of the re-read: closed
// segments are immutable (only the active one, which is excluded, is
// written), rotations only ever create strictly newer names, and a
// racing TruncateBelow at worst removes a candidate first (tolerated).
func (l *Log) TruncateBelow(index int64) error {
	l.mu.Lock()
	segs, err := l.segments()
	active := l.segName
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.first >= active {
			break // never the active segment (or anything newer)
		}
		maxIdx, _, err := validateSegment(seg.path)
		if err != nil || maxIdx > index {
			break
		}
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: truncate below %d: %w", index, err)
		}
	}
	return syncDir(l.dir)
}

// encodeRecord frames one record: length, CRC-32C, payload.
func encodeRecord(rec Record) []byte {
	n := 8 + binary.MaxVarintLen64
	for _, w := range rec.Writes {
		n += 3*binary.MaxVarintLen64 + len(w.Partition) + len(w.Key) + len(w.Value) + 1
	}
	buf := make([]byte, frameSize, frameSize+n)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.TOIndex))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Writes)))
	for _, w := range rec.Writes {
		buf = binary.AppendUvarint(buf, uint64(len(w.Partition)))
		buf = append(buf, w.Partition...)
		buf = binary.AppendUvarint(buf, uint64(len(w.Key)))
		buf = append(buf, w.Key...)
		if w.Value == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(w.Value)))
			buf = append(buf, w.Value...)
		}
	}
	payload := buf[frameSize:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeRecord parses a framed payload (CRC already verified): the
// fields encodeRecord writes, read with a transport.WireReader.
func decodeRecord(payload []byte) (Record, error) {
	r := transport.NewWireReader(payload)
	rec := Record{TOIndex: int64(r.Uint64())}
	if n := r.Count(3); n > 0 { // partition, key and flag: a byte each or more
		rec.Writes = make([]storage.ClassKeyValue, n)
		for i := range rec.Writes {
			w := &rec.Writes[i]
			w.Partition, w.Key = storage.Partition(r.Bytes()), storage.Key(r.Bytes())
			if r.Bool() {
				// A non-nil copy even when empty: the store distinguishes
				// empty values from absent ones.
				w.Value = append(storage.Value{}, r.Bytes()...)
			}
		}
	}
	if err := r.Done(); err != nil {
		return Record{}, fmt.Errorf("wal: malformed record payload: %w", err)
	}
	return rec, nil
}

// validateSegment scans a segment and returns the largest TOIndex of its
// valid prefix and that prefix's byte length.
func validateSegment(path string) (last int64, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	validLen, err = scanFrames(data, func(rec Record) error {
		last = max(last, rec.TOIndex)
		return nil
	})
	return last, validLen, err
}

// scanFrames hands the records of a segment's valid prefix to fn, in
// order, and returns the prefix's byte length. A short or garbled header
// is a zero-length prefix (the whole file is a torn creation); the
// prefix ends at the first frame that is incomplete, fails its CRC or
// does not decode.
func scanFrames(data []byte, fn func(Record) error) (int64, error) {
	if len(data) < headerSize || [8]byte(data[:headerSize]) != segMagic {
		return 0, nil
	}
	off := int64(headerSize)
	for {
		n, payload := nextFrame(data, off)
		if payload == nil {
			return off, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return off, nil
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += n
	}
}

// nextFrame returns the byte length and payload of the frame at off, or
// (0, nil) when the bytes at off do not hold a complete, CRC-valid frame.
func nextFrame(data []byte, off int64) (int64, []byte) {
	if int64(len(data)) < off+frameSize {
		return 0, nil
	}
	length := int64(binary.BigEndian.Uint32(data[off : off+4]))
	if length <= 0 || length > maxRecordBytes || int64(len(data)) < off+frameSize+length {
		return 0, nil
	}
	want := binary.BigEndian.Uint32(data[off+4 : off+8])
	payload := data[off+frameSize : off+frameSize+length]
	if crc32.Checksum(payload, castagnoli) != want {
		return 0, nil
	}
	return frameSize + length, payload
}

// replaySegment streams a segment's records with TOIndex > from to fn.
func replaySegment(path string, from int64, fn func(Record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // truncated concurrently
		}
		return fmt.Errorf("wal: %w", err)
	}
	_, err = scanFrames(data, func(rec Record) error {
		if rec.TOIndex > from {
			return fn(rec)
		}
		return nil
	})
	return err
}

// syncDir fsyncs a directory so renames and creations are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer func() { _ = d.Close() }()
	if err := d.Sync(); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
