package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// syntheticBytes is the per-thread allocation at Scale 1: large
// enough that the alternating-stride sweep punches through L1/L2 and
// the thread's share of the L3.
const syntheticBytes = 4 << 20

// Synthetic is the paper's Sec. V-A microbenchmark: each thread
// allocates a large space and writes it with an alternating stride —
// M, M+1C, M-1C, M+2C, M-2C, ... (C = 128-byte cache line) — touching
// every line exactly once. The pattern defeats hardware prefetching
// (irrelevant here: none is modeled), guarantees no spatial reuse, and
// first-touches every page, so it measures raw DRAM write latency
// including fault, bank, controller and LLC effects.
func Synthetic() Workload {
	return Workload{
		Name:        "synthetic",
		Suite:       "synthetic",
		Description: "alternating-stride write sweep, one access per cache line (paper Fig. 10)",
		Build:       buildSynthetic,
	}
}

func buildSynthetic(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	bytes := p.scaled(syntheticBytes)
	// Round to whole pages, at least two.
	pages := (bytes + phys.PageSize - 1) / phys.PageSize
	if pages < 2 {
		pages = 2
	}
	bytes = pages * phys.PageSize

	bodies := make([]engine.Work, len(threads))
	for i := range threads {
		th := threads[i]
		bodies[i] = func(yield func(engine.Op) bool) {
			va, err := mmapChunk(th, bytes)
			if err != nil {
				return
			}
			mid := alignLine(va + bytes/2)
			// Alternate M+kC, M-kC until the whole range is covered.
			if !yield(engine.Op{VA: mid, Write: true}) {
				return
			}
			for k := uint64(1); ; k++ {
				up := mid + k*phys.LineSize
				down := mid - k*phys.LineSize
				upOK := up < va+bytes
				downOK := down >= va
				if !upOK && !downOK {
					return
				}
				if upOK && !yield(engine.Op{VA: up, Write: true}) {
					return
				}
				if downOK && !yield(engine.Op{VA: down, Write: true}) {
					return
				}
			}
		}
	}
	return []engine.Phase{engine.Parallel("sweep", bodies)}, nil
}
