package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"otpdb/internal/storage"
)

// fuzzRecords are the records FuzzWALOpen's log holds before its tail is
// damaged: a few writes each, nil and empty values among them.
func fuzzRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		idx := int64(i + 1)
		recs[i] = Record{TOIndex: idx, Writes: []storage.ClassKeyValue{
			{Partition: "p", Key: storage.Key(fmt.Sprint("k", idx)), Value: storage.Int64Value(idx)},
		}}
		switch i % 3 {
		case 1:
			recs[i].Writes = append(recs[i].Writes, storage.ClassKeyValue{Partition: "q", Key: "nil"})
		case 2:
			recs[i].Writes = append(recs[i].Writes, storage.ClassKeyValue{Partition: "q", Key: "empty", Value: storage.Value{}})
		}
	}
	return recs
}

// fuzzLog is a log of records split over several segments, as file names
// and contents, and the offset in the last segment at which each of its
// frames ends.
type fuzzLog struct {
	names, files []string
	ends         []int // frame ends in the last segment, in append order
	inEarlier    int   // records in the segments before the last
}

func buildFuzzLog(f *testing.F, recs []Record) fuzzLog {
	dir := f.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, segmentBytes: 160})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	segs, err := l.segments()
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	if len(segs) < 3 {
		f.Fatalf("%d segments, want several", len(segs))
	}
	var fl fuzzLog
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			f.Fatal(err)
		}
		fl.names = append(fl.names, filepath.Base(seg.path))
		fl.files = append(fl.files, string(data))
	}
	last := []byte(fl.files[len(fl.files)-1])
	for off := int64(headerSize); ; {
		n, payload := nextFrame(last, off)
		if payload == nil {
			break
		}
		off += n
		fl.ends = append(fl.ends, int(off))
	}
	fl.inEarlier = len(recs) - len(fl.ends)
	return fl
}

// FuzzWALOpen damages the end of a log the way a crash mid-append or a
// failing disk might: the last segment loses its final cut bytes (none,
// to append) and tail is written in their place. Open must succeed;
// Replay must yield, in order and byte for byte, a prefix of the records
// appended before, at least every one that ends before the damage; and a
// record appended after Open must replay right after that prefix. The
// seeds are a torn length prefix, a bad CRC, a zero-filled tail and an
// empty last segment.
func FuzzWALOpen(f *testing.F) {
	recs := fuzzRecords(12)
	fl := buildFuzzLog(f, recs)
	next := Record{TOIndex: int64(len(recs) + 1), Writes: []storage.ClassKeyValue{
		{Partition: "p", Key: "after", Value: storage.StringValue("open")},
	}}
	lastFrame := encodeRecord(recs[len(recs)-1])
	badCRC := bytes.Clone(lastFrame)
	binary.BigEndian.PutUint32(badCRC[4:8], ^binary.BigEndian.Uint32(badCRC[4:8]))
	f.Add(uint16(0), encodeRecord(next)[:2])
	f.Add(uint16(len(lastFrame)), badCRC)
	f.Add(uint16(0), make([]byte, 64))
	f.Add(uint16(len(fl.files[len(fl.files)-1])), []byte(nil))

	f.Fuzz(func(t *testing.T, cut uint16, tail []byte) {
		dir := t.TempDir()
		lastSeg := len(fl.files) - 1
		for i, name := range fl.names {
			data := []byte(fl.files[i])
			if i == lastSeg {
				keep := max(len(data)-int(cut), 0)
				data = append(data[:keep:keep], tail...)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		intact := fl.inEarlier
		for _, end := range fl.ends {
			if end <= len(fl.files[lastSeg])-int(cut) {
				intact++
			}
		}

		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer func() { _ = l.Close() }()
		replayed := func() [][]byte {
			var got [][]byte
			if err := l.Replay(0, func(r Record) error {
				got = append(got, encodeRecord(r))
				return nil
			}); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			return got
		}
		got := replayed()
		if len(got) < intact || len(got) > len(recs) {
			t.Fatalf("replayed %d records, want between the %d intact ones and %d", len(got), intact, len(recs))
		}
		for i, r := range got {
			if !bytes.Equal(r, encodeRecord(recs[i])) {
				t.Fatalf("record %d replays as %x, want %x", i+1, r, encodeRecord(recs[i]))
			}
		}
		if l.LastIndex() != int64(len(got)) {
			t.Fatalf("LastIndex %d after replaying %d records", l.LastIndex(), len(got))
		}

		if err := l.Append(next); err != nil {
			t.Fatalf("Append after Open: %v", err)
		}
		again := replayed()
		if len(again) != len(got)+1 || !bytes.Equal(again[len(got)], encodeRecord(next)) {
			t.Fatalf("after an Append %d records replay, want the %d before and the new one", len(again), len(got))
		}
	})
}
