package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// gc_latency driver sizing at Scale 1.
const (
	gcLatencyBallast    = 4 << 20 // resident ballast bytes per thread
	gcLatencyOpsPerTick = 6000    // ring writes per thread per tick
	gcLatencyTicks      = 6       // scan periods
	gcLatencyRingFrac   = 16      // ring is ballast/16
	gcLatencyCompute    = 2
)

// GCLatencySpec tunes the gc_latency driver; zero fields take the
// defaults above.
type GCLatencySpec struct {
	Ballast    uint64 // resident bytes per thread
	OpsPerTick uint64 // ring writes per thread per tick
	Ticks      int    // scan periods
}

// GCLatency ports the shape of golang.org/x/benchmarks' gc_latency
// stress: a latency-percentile-focused workload. Every thread keeps a
// large resident ballast and steadily rewrites a small ring inside
// it; once per tick a single rotating thread additionally sweeps its
// entire ballast (the collector's mark phase). The sweep makes that
// thread the phase straggler, so the pain shows up exactly where the
// original benchmark measures it: in the tail — here the per-thread
// runtime spread and barrier idle of each tick (Figs. 13/14
// machinery), which coloring narrows by keeping the sweep local.
func GCLatency(s GCLatencySpec) Workload {
	return Workload{
		Name:        "gc_latency",
		Suite:       "ported",
		Description: "steady ring writes with a rotating whole-ballast sweep straggler (x/benchmarks gc_latency shape)",
		Build: func(threads []engine.Thread, p Params) ([]engine.Phase, error) {
			return buildGCLatency(threads, p, s)
		},
	}
}

func buildGCLatency(threads []engine.Thread, p Params, s GCLatencySpec) ([]engine.Phase, error) {
	ballast := s.Ballast
	if ballast == 0 {
		ballast = p.scaled(gcLatencyBallast)
	}
	ballast = pageAlign(ballast)
	ops := s.OpsPerTick
	if ops == 0 {
		ops = p.scaled(gcLatencyOpsPerTick)
	}
	ticks := s.Ticks
	if ticks == 0 {
		ticks = int(p.scaled(gcLatencyTicks))
	}
	ringBytes := pageAlign(ballast / gcLatencyRingFrac)
	n := len(threads)

	ballastVA := make([]uint64, n)

	// Init: allocate and first-touch the ballast (owner-touched, so
	// first touch matches the compute partition).
	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		initBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if ballastVA[i], err = mmapChunk(th, ballast); err != nil {
				return
			}
			streamTouch(yield, ballastVA[i], ballast, true, 1)
		}
	}
	phases := []engine.Phase{engine.Parallel("init", initBodies)}

	ringLines := ringBytes / phys.LineSize
	for tick := 0; tick < ticks; tick++ {
		bodies := make([]engine.Work, n)
		sweeper := tick % n
		for i := range threads {
			i, tick := i, tick
			bodies[i] = func(yield func(engine.Op) bool) {
				rng := rngFor(p, 800000+i*1000+tick)
				// Steady state: rewrite random lines of the ring at
				// the front of the ballast.
				for k := uint64(0); k < ops; k++ {
					l := uint64(rng.Int63n(int64(ringLines)))
					if !yield(engine.Op{VA: ballastVA[i] + l*phys.LineSize, Write: true, Compute: gcLatencyCompute}) {
						return
					}
				}
				// The rotating sweeper walks its whole ballast: the
				// mark-phase straggler that sets this tick's tail.
				if i == sweeper {
					streamTouch(yield, ballastVA[i], ballast, false, gcLatencyCompute)
				}
			}
		}
		phases = append(phases, engine.Parallel("tick", bodies))
	}
	return phases, nil
}
