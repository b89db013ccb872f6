package storage

import (
	"strconv"
	"testing"
)

// BenchmarkBeginMulti is the storage share of one update transaction's
// start: partition set → sorted, deduplicated → acquired → released. One
// partition is what nearly every transaction has; four is a cross-class
// one.
func BenchmarkBeginMulti(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			s := NewStore()
			parts := make([]Partition, n)
			for i := range parts {
				parts[i] = Partition("c" + strconv.Itoa(n-i))
			}
			b.ReportAllocs()
			for b.Loop() {
				mt, err := s.BeginMulti(parts)
				if err == nil {
					err = mt.Abort()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
