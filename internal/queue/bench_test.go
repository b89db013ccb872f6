package queue

import "testing"

// BenchmarkQHop measures what one crossing of a queue costs the two
// goroutines on either side of it. pingpong: one item goes over and comes
// back through a second queue, nothing else in flight — two hops per op,
// each of which has to wake the other side. burst32: the producer pushes
// 32 items before the consumer reads any — per item, the cost of a hop
// whose consumer is already behind.
func BenchmarkQHop(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) {
		there, back := New[int](), New[int]()
		defer there.Close()
		defer back.Close()
		go func() {
			for v := range there.Chan() {
				back.Push(v)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			there.Push(i)
			<-back.Chan()
		}
	})
	b.Run("burst32", func(b *testing.B) {
		const burst = 32
		q := New[int]()
		defer q.Close()
		read := make(chan struct{})
		go func() {
			for {
				for i := 0; i < burst; i++ {
					if _, ok := <-q.Chan(); !ok {
						return
					}
				}
				read <- struct{}{}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += burst {
			for i := 0; i < burst; i++ {
				q.Push(i)
			}
			<-read
		}
	})
}
