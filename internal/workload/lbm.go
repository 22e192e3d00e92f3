package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// lbm proxy sizing at Scale 1.
const (
	lbmGridBytes = 3 << 20 // per-thread slice of each lattice copy
	lbmSteps     = 4       // time steps (parallel phases)
	lbmCompute   = 6       // cycles of collision arithmetic per line
)

// LBM proxies SPEC's Lattice-Boltzmann fluid solver: two full lattice
// copies streamed alternately (read source cell neighborhood, write
// destination), partitioned across threads and first-touch
// initialized by the owning thread in a parallel init phase. It is
// the most memory-intensive workload in the suite — large heap,
// pure streaming, little reuse — and showed the paper's largest gain
// (~30% at 16 threads / 4 nodes).
func LBM() Workload {
	return Workload{
		Name:        "lbm",
		Suite:       "SPEC",
		Description: "streaming stencil over two lattice copies, first-touch partitioned",
		Build:       buildLBM,
	}
}

func buildLBM(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	bytes := pageAlign(p.scaled(lbmGridBytes))
	n := len(threads)

	// Per-thread partitions of the two lattices; allocated and
	// first-touched by their owner so first touch matches the
	// compute partition (the property the paper calls out).
	srcVA := make([]uint64, n)
	dstVA := make([]uint64, n)

	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		initBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if srcVA[i], err = mmapChunk(th, bytes); err != nil {
				return
			}
			if dstVA[i], err = mmapChunk(th, bytes); err != nil {
				return
			}
			// First-touch both copies (writes).
			if !streamTouch(yield, srcVA[i], bytes, true, 1) {
				return
			}
			streamTouch(yield, dstVA[i], bytes, true, 1)
		}
	}
	phases := []engine.Phase{engine.Parallel("init", initBodies)}

	steps := int(p.scaled(lbmSteps))
	for s := 0; s < steps; s++ {
		bodies := make([]engine.Work, n)
		flip := s%2 == 1
		for i := range threads {
			i := i
			bodies[i] = func(yield func(engine.Op) bool) {
				src, dst := srcVA[i], dstVA[i]
				if flip {
					src, dst = dst, src
				}
				// Stream: read the source line (cell neighborhood is
				// spatially adjacent and covered by the line), do the
				// collision arithmetic, write the destination line.
				for off := uint64(0); off < bytes; off += phys.LineSize {
					if !yield(engine.Op{VA: src + off, Compute: lbmCompute}) {
						return
					}
					if !yield(engine.Op{VA: dst + off, Write: true}) {
						return
					}
				}
			}
		}
		phases = append(phases, engine.Parallel("step", bodies))
	}
	return phases, nil
}

func pageAlign(b uint64) uint64 {
	pages := (b + phys.PageSize - 1) / phys.PageSize
	if pages == 0 {
		pages = 1
	}
	return pages * phys.PageSize
}
