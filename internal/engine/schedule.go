package engine

// Loop scheduling helpers, the analogues of OpenMP's
// schedule(static) and schedule(dynamic). The paper's benchmarks use
// `#pragma omp for`, whose default static schedule is what makes
// memory-access divergence turn into barrier idle time; dynamic
// scheduling is the classic alternative remedy, so having both makes
// the trade-off measurable: coloring attacks the *cause* (divergent
// access latency), dynamic scheduling the *symptom* (imbalance) — at
// the cost of losing first-touch placement affinity.

// IterBody emits the ops of loop iteration i. It returns false when
// the engine stopped consuming (the body must stop too).
type IterBody func(i int, yield func(Op) bool) bool

// StaticFor partitions iterations [0, n) into nThreads contiguous
// blocks, one per thread — OpenMP schedule(static). Iteration-to-
// thread assignment is fixed before the phase runs, so first touch
// matches the partition.
func StaticFor(n, nThreads int, body IterBody) []Work {
	bodies := make([]Work, nThreads)
	for t := 0; t < nThreads; t++ {
		lo := t * n / nThreads
		hi := (t + 1) * n / nThreads
		bodies[t] = func(yield func(Op) bool) {
			for i := lo; i < hi; i++ {
				if !body(i, yield) {
					return
				}
			}
		}
	}
	return bodies
}

// DynamicFor hands out chunks of `chunk` iterations from a shared
// queue: whenever a thread finishes its chunk it takes the next one —
// OpenMP schedule(dynamic, chunk). Each claim of the shared cursor
// follows a Sync, so it runs at the claiming thread's turn, in
// virtual-time order: the earliest-available simulated thread really
// does win the next chunk, exactly like the runtime work queue it
// models.
func DynamicFor(n, chunk, nThreads int, body IterBody) []Work {
	if chunk < 1 {
		chunk = 1
	}
	next := 0 // shared cursor; claimed only at a thread's turn
	bodies := make([]Work, nThreads)
	for t := 0; t < nThreads; t++ {
		bodies[t] = func(yield func(Op) bool) {
			for {
				if !yield(Sync()) {
					return
				}
				lo := next
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				next = hi
				for i := lo; i < hi; i++ {
					if !body(i, yield) {
						return
					}
				}
			}
		}
	}
	return bodies
}
