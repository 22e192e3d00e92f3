package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// art proxy sizing at Scale 1.
const (
	artWeightsBytes = 512 << 10 // per-thread F1/F2 weight arrays (hot, reused)
	artInputBytes   = 2 << 20   // per-thread scan-window stream (cold)
	artEpochs       = 3         // match passes over the input
	artCompute      = 4
)

// Art proxies SPEC's Adaptive Resonance Theory image matcher: each
// thread repeatedly sweeps its neural-network weight arrays (heavy
// reuse, prime LLC resident set) while streaming scan-window input
// through the cache. Under shared-LLC execution the streaming input
// of all threads evicts everyone's weights; LLC coloring contains the
// pollution, which is why art is among the benchmarks sped up
// significantly in the paper.
func Art() Workload {
	return Workload{
		Name:        "art",
		Suite:       "SPEC",
		Description: "weight-array reuse vs streaming input pollution (LLC-sensitive)",
		Build:       buildArt,
	}
}

func buildArt(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	wBytes := pageAlign(p.scaled(artWeightsBytes))
	inBytes := pageAlign(p.scaled(artInputBytes))
	n := len(threads)

	weightsVA := make([]uint64, n)
	inputVA := make([]uint64, n)

	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		initBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if weightsVA[i], err = mmapChunk(th, wBytes); err != nil {
				return
			}
			if inputVA[i], err = mmapChunk(th, inBytes); err != nil {
				return
			}
			if !streamTouch(yield, weightsVA[i], wBytes, true, 1) {
				return
			}
			streamTouch(yield, inputVA[i], inBytes, true, 1)
		}
	}
	phases := []engine.Phase{engine.Parallel("init", initBodies)}

	epochs := int(p.scaled(artEpochs))
	bodies := make([]engine.Work, n)
	for i := range threads {
		i := i
		bodies[i] = func(yield func(engine.Op) bool) {
			w, in := weightsVA[i], inputVA[i]
			// Interleave: stream a block of input, then re-sweep the
			// weights (F1/F2 resonance pass). Weights are re-read
			// every iteration — the reuse the LLC must retain.
			const block = 128 << 10
			for e := 0; e < epochs; e++ {
				for ib := uint64(0); ib < inBytes; ib += block {
					end := ib + block
					if end > inBytes {
						end = inBytes
					}
					if !streamTouch(yield, in+ib, end-ib, false, artCompute) {
						return
					}
					if !streamTouch(yield, w, wBytes, false, artCompute) {
						return
					}
					// Winner update: sparse writes into the weights.
					for off := uint64(0); off < wBytes; off += 64 * phys.LineSize {
						if !yield(engine.Op{VA: w + off, Write: true, Compute: artCompute}) {
							return
						}
					}
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("match", bodies))
	return phases, nil
}
