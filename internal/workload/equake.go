package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// equake proxy sizing at Scale 1.
const (
	equakeNodeBytes = 2 << 20 // per-thread slice of the FEM node arrays
	equakeGathers   = 160000  // sparse gather/scatter operations per thread
	equakeCompute   = 5
)

// Equake proxies SPEC's earthquake FEM solver: a sparse
// matrix-vector kernel whose unstructured mesh produces
// data-dependent gathers and scatters across the node arrays. The
// irregular page-granular jumps make it row-buffer hostile and
// bank-sensitive: under shared banks the interleaved row activations
// of different threads destroy each other's row locality, the
// interference bank coloring removes.
func Equake() Workload {
	return Workload{
		Name:        "equake",
		Suite:       "SPEC",
		Description: "sparse FEM gather/scatter (bank and row-buffer sensitive)",
		Build:       buildEquake,
	}
}

func buildEquake(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	bytes := pageAlign(p.scaled(equakeNodeBytes))
	gathers := int(p.scaled(equakeGathers))
	n := len(threads)

	nodesVA := make([]uint64, n)

	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		initBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if nodesVA[i], err = mmapChunk(th, bytes); err != nil {
				return
			}
			streamTouch(yield, nodesVA[i], bytes, true, 1)
		}
	}
	phases := []engine.Phase{engine.Parallel("init", initBodies)}

	bodies := make([]engine.Work, n)
	pages := bytes / phys.PageSize
	linesPerPage := uint64(phys.PageSize / phys.LineSize)
	for i := range threads {
		i := i
		bodies[i] = func(yield func(engine.Op) bool) {
			rng := rngFor(p, i)
			base := nodesVA[i]
			for g := 0; g < gathers; g++ {
				// One sparse row: jump to a mesh element (random
				// page — defeats streaming), gather three spatially
				// clustered node entries within it, scatter one
				// update back. The within-element locality gives
				// row-buffer hits that interleaved threads in the
				// same bank destroy — the interference bank coloring
				// removes.
				pg := uint64(rng.Int63n(int64(pages)))
				ln := uint64(rng.Int63n(int64(linesPerPage - 3)))
				elem := base + pg*phys.PageSize + ln*phys.LineSize
				for k := uint64(0); k < 3; k++ {
					if !yield(engine.Op{VA: elem + k*phys.LineSize, Compute: equakeCompute}) {
						return
					}
				}
				if !yield(engine.Op{VA: elem, Write: true, Compute: equakeCompute}) {
					return
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("smvp", bodies))
	return phases, nil
}
