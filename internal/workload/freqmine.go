package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
)

// freqmine proxy sizing at Scale 1.
const (
	freqmineNodes      = 24000 // FP-tree nodes built per thread
	freqmineNodeSize   = 64    // bytes per tree node (one cache line)
	freqmineTraversals = 16000 // conditional-pattern walks per thread
	freqmineWalkLen    = 12    // nodes visited per walk
	freqmineCompute    = 3
)

// Freqmine proxies Parsec's FP-growth frequent-itemset miner: each
// thread builds a large pointer-linked FP-tree from many small heap
// allocations, then repeatedly walks conditional pattern paths
// through it. The walks jump between heap pages in data-dependent
// order, so the workload wants its pages spread over many banks
// (row-buffer conflicts against itself otherwise) and a large LLC
// share — which is why the paper found full MEM+LLC coloring, with
// its restricted per-thread bank and LLC slice, beaten by
// LLC+MEM(part) at 16 threads. Tree node k sits in heap slot k.
func Freqmine() Workload {
	return Workload{
		Name:        "freqmine",
		Suite:       "Parsec",
		Description: "FP-tree build and pointer-chasing walks over small heap nodes",
		Build:       buildFreqmine,
	}
}

func buildFreqmine(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	nNodes := int(p.scaled(freqmineNodes))
	nWalks := int(p.scaled(freqmineTraversals))
	n := len(threads)

	buildBodies := make([]engine.Work, n)
	for i := range threads {
		buildBodies[i] = func(yield func(engine.Op) bool) {
			rng := rngFor(p, i)
			for k := 0; k < nNodes; k++ {
				// Write the new node, then touch its (random)
				// parent to link it — the insertion path.
				if !yield(engine.Malloc(k, freqmineNodeSize)) ||
					!yield(engine.Op{Ref: engine.Slot(k), Write: true, Compute: freqmineCompute}) {
					return
				}
				if k > 0 {
					parent := rng.Intn(k)
					if !yield(engine.Op{Ref: engine.Slot(parent), Write: true, Compute: freqmineCompute}) {
						return
					}
				}
			}
		}
	}
	phases := []engine.Phase{engine.Parallel("build-tree", buildBodies)}

	mineBodies := make([]engine.Work, n)
	for i := range threads {
		mineBodies[i] = func(yield func(engine.Op) bool) {
			rng := rngFor(p, 500000+i)
			for w := 0; w < nWalks; w++ {
				// Conditional pattern walk: data-dependent hops
				// across the node pool.
				idx := rng.Intn(nNodes)
				for s := 0; s < freqmineWalkLen; s++ {
					if !yield(engine.Op{Ref: engine.Slot(idx), Compute: freqmineCompute}) {
						return
					}
					// Next hop derived from current position
					// (deterministic chaos, reproducible).
					idx = int(uint64(idx)*2654435761+uint64(s)) % nNodes
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("mine", mineBodies))
	return phases, nil
}
