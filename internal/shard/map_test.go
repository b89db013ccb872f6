package shard

import (
	"fmt"
	"testing"

	"otpdb/internal/sproc"
)

func TestMapDeterministic(t *testing.T) {
	a, err := NewMap(4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewMap(4)
	for i := 0; i < 200; i++ {
		c := sproc.ClassID(fmt.Sprintf("class-%d", i))
		if a.Locate(c) != b.Locate(c) {
			t.Fatalf("maps disagree on %s: %d vs %d", c, a.Locate(c), b.Locate(c))
		}
	}
}

func TestMapBalance(t *testing.T) {
	m, _ := NewMap(4)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[m.Locate(sproc.ClassID(fmt.Sprintf("class-%d", i)))]++
	}
	for s, n := range counts {
		if n < 100 {
			t.Fatalf("shard %d owns only %d of 1000 classes: %v", s, n, counts)
		}
	}
}

func TestMapPinOverridesAndBumpsVersion(t *testing.T) {
	m, _ := NewMap(4)
	c := sproc.ClassID("accounts")
	want := (m.Locate(c) + 1) % 4
	v0 := m.Version()
	if err := m.Pin(c, want); err != nil {
		t.Fatal(err)
	}
	if got := m.Locate(c); got != want {
		t.Fatalf("pinned class on shard %d, want %d", got, want)
	}
	if m.Version() != v0+1 {
		t.Fatalf("version %d, want %d", m.Version(), v0+1)
	}
	if err := m.Pin(c, 4); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

func TestMapReservedClassesOnShardZero(t *testing.T) {
	m, _ := NewMap(8)
	for _, c := range []sproc.ClassID{CoordClass, "__members", "__anything"} {
		if got := m.Locate(c); got != 0 {
			t.Fatalf("reserved class %s on shard %d, want 0", c, got)
		}
	}
}

func TestMapSplitAndSingle(t *testing.T) {
	m, _ := NewMap(4)
	if err := m.Pin("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Pin("b", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Pin("c", 2); err != nil {
		t.Fatal(err)
	}
	split := m.Split([]sproc.ClassID{"a", "b", "c"})
	if len(split) != 2 {
		t.Fatalf("split %v, want 2 shards", split)
	}
	if len(split[2]) != 2 || split[2][0] != "a" || split[2][1] != "c" {
		t.Fatalf("shard 2 classes %v, want [a c]", split[2])
	}
	if _, ok := m.single([]sproc.ClassID{"a", "b", "c"}); ok {
		t.Fatal("a class set on shards 1 and 2 reported single-shard")
	}
	if g, ok := m.single([]sproc.ClassID{"a", "c"}); !ok || g != 2 {
		t.Fatalf("single([a c]) = %d, %v; want 2, true", g, ok)
	}
}

func TestMapSingleShardTakesAll(t *testing.T) {
	m, _ := NewMap(1)
	for i := 0; i < 50; i++ {
		if s := m.Locate(sproc.ClassID(fmt.Sprintf("c%d", i))); s != 0 {
			t.Fatalf("class on shard %d in a 1-shard map", s)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	x := XID{Origin: 3, Inc: 99, Seq: 7}
	p := prepPayload{
		XID:    x,
		Shard:  1,
		Home:   0,
		Shards: []int{0, 1},
		Reads:  []RW{{Class: "a", Key: "k", Value: []byte("v"), Present: true}},
		Writes: []RW{{Class: "a", Key: "k", Value: []byte("w"), Present: true}},
	}
	enc, err := encode(p)
	if err != nil {
		t.Fatal(err)
	}
	var got prepPayload
	if err := decode(enc, &got); err != nil {
		t.Fatal(err)
	}
	if got.XID != x || got.Shard != 1 || len(got.Reads) != 1 || string(got.Writes[0].Value) != "w" {
		t.Fatalf("round trip mangled payload: %+v", got)
	}
	for _, v := range []Verdict{VerdictNone, VerdictCommit, VerdictAbort} {
		if v == VerdictNone {
			continue
		}
		if decodeVerdict(encodeVerdict(v)) != v {
			t.Fatalf("verdict %v did not round-trip", v)
		}
	}
	if decodeVerdict(nil) != VerdictNone || decodeVerdict([]byte{42}) != VerdictNone {
		t.Fatal("malformed verdict bytes should decode to none")
	}
}
