package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
)

// BenchmarkEventQueueStep times one scheduling step of the event
// loop: read the earliest thread, advance its clock by a small random
// step, and restore the order. The steps come from a precomputed
// table, so the loop times the queue, not the generator. Sixteen
// runners is the largest thread count of any named configuration;
// 128 shows how the cost grows past it.
func BenchmarkEventQueueStep(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("runners=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rs := make([]*runnerState, n)
			for i := range rs {
				rs[i] = &runnerState{id: i, time: clock.Time(rng.Intn(64))}
			}
			steps := make([]clock.Dur, 1024)
			for i := range steps {
				steps[i] = clock.Dur(rng.Intn(64))
			}
			q, err := newEventQueue(rs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Min().time += steps[i&(len(steps)-1)]
				if err := q.FixMin(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
