package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// computeIter builds an IterBody that records executed iterations and
// costs cost(i) cycles each.
func computeIter(executed []int, cost func(int) clock.Dur) IterBody {
	return func(i int, yield func(Op) bool) bool {
		executed[i]++
		return yield(Op{Compute: cost(i)})
	}
}

func TestStaticForCoversAllIterationsOnce(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4, 8})
	const n = 100
	executed := make([]int, n)
	bodies := StaticFor(n, 3, computeIter(executed, func(int) clock.Dur { return 10 }))
	if _, err := r.e.Run([]Phase{Parallel("loop", bodies)}); err != nil {
		t.Fatal(err)
	}
	for i, c := range executed {
		if c != 1 {
			t.Errorf("iteration %d executed %d times", i, c)
		}
	}
}

func TestDynamicForCoversAllIterationsOnce(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4, 8, 12})
	const n = 97 // deliberately not divisible by chunk or threads
	executed := make([]int, n)
	bodies := DynamicFor(n, 5, 4, computeIter(executed, func(int) clock.Dur { return 7 }))
	if _, err := r.e.Run([]Phase{Parallel("loop", bodies)}); err != nil {
		t.Fatal(err)
	}
	for i, c := range executed {
		if c != 1 {
			t.Errorf("iteration %d executed %d times", i, c)
		}
	}
}

// An imbalanced loop (one expensive tail block): static scheduling
// strands the expensive block on one thread; dynamic scheduling
// self-balances, cutting both runtime and idle.
func TestDynamicBeatsStaticOnImbalance(t *testing.T) {
	cost := func(i int) clock.Dur {
		if i >= 75 {
			return 100 // expensive tail quarter
		}
		return 10
	}
	run := func(dynamic bool) *Result {
		r := newRig(t, []topology.CoreID{0, 4, 8, 12})
		executed := make([]int, 100)
		var bodies []Work
		if dynamic {
			bodies = DynamicFor(100, 2, 4, computeIter(executed, cost))
		} else {
			bodies = StaticFor(100, 4, computeIter(executed, cost))
		}
		res, err := r.e.Run([]Phase{Parallel("loop", bodies)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(false)
	dynamic := run(true)
	if !(dynamic.Runtime < static.Runtime) {
		t.Errorf("dynamic runtime %d not below static %d", dynamic.Runtime, static.Runtime)
	}
	if !(dynamic.TotalIdle < static.TotalIdle) {
		t.Errorf("dynamic idle %d not below static %d", dynamic.TotalIdle, static.TotalIdle)
	}
}

// DynamicFor's claims follow the (time, id) order: the thread that
// is earliest when the previous chunk runs out claims the next one.
// A greedy model of that rule, computed here from the iteration
// costs alone, must reproduce the engine's iteration-to-thread map.
func TestDynamicForMatchesGreedyModel(t *testing.T) {
	for _, tc := range []struct{ n, chunk, threads int }{
		{97, 3, 4}, {64, 1, 3}, {50, 7, 2}, {10, 4, 4},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n*31 + tc.chunk)))
		cost := make([]clock.Dur, tc.n)
		for i := range cost {
			// Small costs make equal clocks, so ties by id are
			// exercised.
			cost[i] = clock.Dur(1 + rng.Intn(4))
		}

		want := make([]int, tc.n)
		clk := make([]clock.Time, tc.threads)
		done := make([]bool, tc.threads)
		for next, left := 0, tc.threads; left > 0; {
			t0 := -1
			for th := range clk {
				if !done[th] && (t0 < 0 || clk[th] < clk[t0]) {
					t0 = th
				}
			}
			if next >= tc.n {
				done[t0] = true
				left--
				continue
			}
			for i := next; i < min(next+tc.chunk, tc.n); i++ {
				want[i] = t0
				clk[t0] += cost[i]
			}
			next += tc.chunk
		}

		// Each op carries its iteration in VA (compute-only ops
		// ignore it), and each thread's yield records the owner.
		got := make([]int, tc.n)
		bodies := DynamicFor(tc.n, tc.chunk, tc.threads, func(i int, yield func(Op) bool) bool {
			return yield(Op{Compute: cost[i], VA: uint64(i)})
		})
		for th, w := range bodies {
			bodies[th] = func(yield func(Op) bool) {
				w(func(op Op) bool {
					if op.Ref == 0 {
						got[op.VA] = th
						op.VA = 0
					}
					return yield(op)
				})
			}
		}
		cores := make([]topology.CoreID, tc.threads)
		for i := range cores {
			cores[i] = topology.CoreID(i)
		}
		if _, err := newRig(t, cores).e.Run([]Phase{Parallel("loop", bodies)}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d chunk=%d threads=%d: owners %v, greedy model %v",
				tc.n, tc.chunk, tc.threads, got, want)
		}
	}
}

func TestDynamicForChunkFloor(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	executed := make([]int, 10)
	bodies := DynamicFor(10, 0, 2, computeIter(executed, func(int) clock.Dur { return 1 }))
	if _, err := r.e.Run([]Phase{Parallel("loop", bodies)}); err != nil {
		t.Fatal(err)
	}
	for i, c := range executed {
		if c != 1 {
			t.Errorf("iteration %d executed %d times with chunk floor", i, c)
		}
	}
}

func TestStaticForContiguousPartition(t *testing.T) {
	// Record which thread runs each iteration by draining the
	// bodies directly (no engine needed for assignment structure).
	const n, threads = 61, 4
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	var current int
	bodies := StaticFor(n, threads, func(i int, yield func(Op) bool) bool {
		if owner[i] != -1 {
			t.Fatalf("iteration %d assigned twice", i)
		}
		owner[i] = current
		return true // consume without yielding ops
	})
	for tid, b := range bodies {
		current = tid
		b(func(Op) bool { return true })
	}
	// Coverage and contiguity: owners are non-decreasing over i.
	for i := 0; i < n; i++ {
		if owner[i] == -1 {
			t.Fatalf("iteration %d never assigned", i)
		}
		if i > 0 && owner[i] < owner[i-1] {
			t.Fatalf("static partition not contiguous at %d", i)
		}
	}
}
