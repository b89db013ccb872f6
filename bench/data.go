package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"otpdb/internal/sproc"
	"otpdb/internal/storage"
)

// The database every workload runs on: 8 conflict classes of 1024 keys.
// A value is an 8-byte big-endian counter followed by a 128-byte payload;
// put-cN(key, payload) is a read-modify-write that bumps the counter, so
// the sum of all counters is the number of commits applied — which is what
// makes effect-once checkable from outside.
const (
	numClasses   = 8
	keysPerClass = 1024
	payloadLen   = 128
	valueLen     = 8 + payloadLen
	// A scan reads scanKeys consecutive keys in every class; the key space
	// divides into scanGroups such groups.
	scanKeys   = 16
	scanGroups = keysPerClass / scanKeys
	scanProc   = "scan"
)

var (
	classNames [numClasses]sproc.ClassID
	procNames  [numClasses]string
	keyNames   [keysPerClass]storage.Key
	keyArgs    [keysPerClass]storage.Value // keyNames as procedure arguments, shared read-only
	groupArgs  [scanGroups]storage.Value
)

func init() {
	for c := range classNames {
		classNames[c] = sproc.ClassID(fmt.Sprintf("c%d", c))
		procNames[c] = fmt.Sprintf("put-c%d", c)
	}
	for k := range keyNames {
		keyNames[k] = storage.Key(fmt.Sprintf("k%04d", k))
		keyArgs[k] = storage.Value(keyNames[k])
	}
	for g := range groupArgs {
		groupArgs[g] = storage.Int64Value(int64(g))
	}
}

// put is the body of every put-cN procedure.
func put(ctx sproc.UpdateCtx) (storage.Value, error) {
	args := ctx.Args()
	if len(args) != 2 || len(args[1]) != payloadLen {
		return nil, fmt.Errorf("put: want (key, %d-byte payload)", payloadLen)
	}
	key := storage.Key(args[0])
	old, _ := ctx.Read(key)
	n := storage.ValueInt64(old) + 1
	next := make(storage.Value, valueLen)
	binary.BigEndian.PutUint64(next, uint64(n))
	copy(next[8:], args[1])
	return storage.Int64Value(n), ctx.Write(key, next)
}

// scan sums the counters of one key group across all classes from a
// single snapshot.
func scan(ctx sproc.QueryCtx) (storage.Value, error) {
	args := ctx.Args()
	if len(args) != 1 {
		return nil, fmt.Errorf("scan: want (group)")
	}
	g := int(storage.ValueInt64(args[0]))
	if g < 0 || g >= scanGroups {
		return nil, fmt.Errorf("scan: group %d out of range", g)
	}
	var sum int64
	for c := range classNames {
		for k := g * scanKeys; k < (g+1)*scanKeys; k++ {
			v, _ := ctx.Read(classNames[c], keyNames[k])
			sum += storage.ValueInt64(v)
		}
	}
	return storage.Int64Value(sum), nil
}

// procedures returns the stored procedures of the benchmark database.
// wrap, when non-nil, decorates every update body (the traced run's Fn
// wrapper).
func procedures(wrap func(sproc.UpdateFn) sproc.UpdateFn) ([]sproc.Update, sproc.Query) {
	fn := sproc.UpdateFn(put)
	if wrap != nil {
		fn = wrap(fn)
	}
	ups := make([]sproc.Update, numClasses)
	for c := range ups {
		ups[c] = sproc.Update{Name: procNames[c], Class: classNames[c], Fn: fn}
	}
	return ups, sproc.Query{Name: scanProc, Fn: scan}
}

// seedValue is every key's initial value: counter 0, zero payload.
func seedValue() storage.Value { return make(storage.Value, valueLen) }

// op is one generated update: put-c<class>(key, payload).
type op struct {
	class, key int
	payload    storage.Value
}

func (o *op) args() []storage.Value { return []storage.Value{keyArgs[o.key], o.payload} }

// generator draws operations from a seeded source; the program under test
// sees only what it produces.
type generator struct{ rng *rand.Rand }

func newGenerator(seed int64, stream int) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))}
}

// next fills o with a fresh operation. The payload is newly allocated
// because memnet hands the same bytes to all three replicas, which may
// still be reading them after the origin has acknowledged. Its first 8
// bytes stay zero: the traced run writes the transaction's tag there
// (tracer.begin).
func (g *generator) next(o *op) {
	o.class = g.rng.Intn(numClasses)
	o.key = g.rng.Intn(keysPerClass)
	o.payload = make(storage.Value, payloadLen)
	g.rng.Read(o.payload[8:])
}

func (g *generator) group() int { return g.rng.Intn(scanGroups) }

// tally counts acknowledged commits per key: the state the database must
// hold when the run ends.
type tally [numClasses][keysPerClass]uint32

func (t *tally) add(o *tally) {
	for c := range t {
		for k := range t[c] {
			t[c][k] += o[c][k]
		}
	}
}

func (t *tally) total() int64 {
	var n int64
	for c := range t {
		for k := range t[c] {
			n += int64(t[c][k])
		}
	}
	return n
}

func (t *tally) groupSum(g int) int64 {
	var n int64
	for c := range t {
		for k := g * scanKeys; k < (g+1)*scanKeys; k++ {
			n += int64(t[c][k])
		}
	}
	return n
}
