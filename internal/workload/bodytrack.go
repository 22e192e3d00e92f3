package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// bodytrack proxy sizing at Scale 1.
const (
	bodytrackImageBytes    = 2 << 20   // per-frame edge/image maps, partitioned
	bodytrackParticleBytes = 768 << 10 // per-thread particle state
	bodytrackFrames        = 3         // video frames (parallel+serial rounds)
	bodytrackEvalsPerFrame = 16000     // particle evaluations per thread per frame
	bodytrackShareFrac     = 4         // 1-in-N probes read another thread's image slice
	bodytrackCompute       = 8
)

// Bodytrack proxies Parsec's particle-filter body tracker: each video
// frame first computes its edge/image maps in parallel (every thread
// first-touches its slice), then evaluates particle weights — reads
// of the thread's own particles plus image probes that mostly hit the
// thread's own image slice but sometimes cross into other threads'
// slices (a tracked body part spans camera regions). Each frame ends
// with a short serial resampling step on the master. The cross-slice
// probes are the irreducible shared-data traffic the paper
// acknowledges; the private particles and image slices benefit fully
// from coloring.
func Bodytrack() Workload {
	return Workload{
		Name:        "bodytrack",
		Suite:       "Parsec",
		Description: "particle filter: parallel image maps, particle evaluation, serial resampling",
		Build:       buildBodytrack,
	}
}

func buildBodytrack(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	imgBytes := pageAlign(p.scaled(bodytrackImageBytes))
	partBytes := pageAlign(p.scaled(bodytrackParticleBytes))
	evals := int(p.scaled(bodytrackEvalsPerFrame))
	n := len(threads)

	imageVA := make([]uint64, n) // per-thread slice of the frame maps
	particleVA := make([]uint64, n)

	// Parallel init: image slice and particle state first-touched by
	// their owner.
	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		initBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if imageVA[i], err = mmapChunk(th, imgBytes); err != nil {
				return
			}
			if particleVA[i], err = mmapChunk(th, partBytes); err != nil {
				return
			}
			if !streamTouch(yield, imageVA[i], imgBytes, true, 1) {
				return
			}
			streamTouch(yield, particleVA[i], partBytes, true, 1)
		}
	}
	phases := []engine.Phase{engine.Parallel("init", initBodies)}

	frames := int(p.scaled(bodytrackFrames))
	imgLines := imgBytes / phys.LineSize
	partLines := partBytes / phys.LineSize
	for f := 0; f < frames; f++ {
		// Parallel: recompute this frame's image maps (streaming
		// write over the own slice).
		mapBodies := make([]engine.Work, n)
		for i := range threads {
			i := i
			mapBodies[i] = func(yield func(engine.Op) bool) {
				streamTouch(yield, imageVA[i], imgBytes, true, bodytrackCompute/2)
			}
		}
		phases = append(phases, engine.Parallel("image-maps", mapBodies))

		// Parallel: particle weight evaluation.
		evalBodies := make([]engine.Work, n)
		for i := range threads {
			i, f := i, f
			evalBodies[i] = func(yield func(engine.Op) bool) {
				rng := rngFor(p, i*1000+f)
				for e := 0; e < evals; e++ {
					pl := uint64(rng.Int63n(int64(partLines)))
					if !yield(engine.Op{VA: particleVA[i] + pl*phys.LineSize, Compute: bodytrackCompute}) {
						return
					}
					// Image probe: usually the own slice, sometimes a
					// neighbour's (body parts cross slice boundaries).
					owner := i
					if rng.Intn(bodytrackShareFrac) == 0 {
						owner = rng.Intn(n)
					}
					ml := uint64(rng.Int63n(int64(imgLines)))
					if !yield(engine.Op{VA: imageVA[owner] + ml*phys.LineSize, Compute: bodytrackCompute}) {
						return
					}
					if !yield(engine.Op{VA: particleVA[i] + pl*phys.LineSize, Write: true, Compute: bodytrackCompute}) {
						return
					}
				}
			}
		}
		phases = append(phases, engine.Parallel("evaluate", evalBodies))

		// Serial resampling on the master: pass over its own
		// particle slice.
		resample := func(yield func(engine.Op) bool) {
			streamTouch(yield, particleVA[0], partBytes, true, bodytrackCompute)
		}
		phases = append(phases, engine.Serial("resample", n, resample))
	}
	return phases, nil
}
