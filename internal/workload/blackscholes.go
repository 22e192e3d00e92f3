package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// blackscholes proxy sizing at Scale 1.
const (
	bsOptionBytes   = 6 << 20   // option portfolio, master-loaded
	bsResultBytes   = 384 << 10 // per-thread result array
	bsComputePerOpt = 400       // per-option arithmetic (compute bound)
	bsAggrPasses    = 2         // aggregation sweeps over own results
)

// Blackscholes proxies Parsec's option pricer: the master thread
// reads the whole option portfolio serially (a large input load that
// first-touches every page on the master's node and with the master's
// colors), then the threads price disjoint slices with a very high
// compute-to-access ratio, writing into per-thread result arrays, and
// finally aggregate their own results. The big serial fraction, the
// master-placed input, and the low memory intensity leave little for
// coloring to win — the paper measured the smallest improvement here
// (~3.6%, with MEM+LLC(part) the best variant and full MEM+LLC not
// helping).
func Blackscholes() Workload {
	return Workload{
		Name:        "blackscholes",
		Suite:       "Parsec",
		Description: "serial input load + compute-bound parallel pricing",
		Build:       buildBlackscholes,
	}
}

func buildBlackscholes(threads []engine.Thread, p Params) ([]engine.Phase, error) {
	bytes := pageAlign(p.scaled(bsOptionBytes))
	resBytes := pageAlign(p.scaled(bsResultBytes))
	n := len(threads)

	var optionsVA uint64
	resultVA := make([]uint64, n)
	master := threads[0]

	// Serial input parse: the master reads the file and writes the
	// option array — every page first-touched by thread 0.
	load := func(yield func(engine.Op) bool) {
		var err error
		if optionsVA, err = mmapChunk(master, bytes); err != nil {
			return
		}
		streamTouch(yield, optionsVA, bytes, true, 4)
	}
	phases := []engine.Phase{engine.Serial("parse-input", n, load)}

	// Parallel copy-in: each worker reads its slice of the
	// master-parsed array once and writes it into a local copy —
	// the array-of-structures conversion the real benchmark does.
	slice := pageAlign(bytes / uint64(n))
	localVA := make([]uint64, n)
	copyBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		copyBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if localVA[i], err = mmapChunk(th, slice); err != nil {
				return
			}
			if resultVA[i], err = mmapChunk(th, resBytes); err != nil {
				return
			}
			start := optionsVA + uint64(i)*slice
			for off := uint64(0); off < slice && start+off < optionsVA+bytes; off += phys.LineSize {
				if !yield(engine.Op{VA: start + off, Compute: 2}) {
					return
				}
				if !yield(engine.Op{VA: localVA[i] + off, Write: true}) {
					return
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("copy-in", copyBodies))

	// Parallel pricing: read an option line from the local copy,
	// run the long Black-Scholes arithmetic, write the result.
	resLines := resBytes / phys.LineSize
	priceBodies := make([]engine.Work, n)
	for i := range threads {
		i := i
		priceBodies[i] = func(yield func(engine.Op) bool) {
			var k uint64
			for off := uint64(0); off < slice; off += phys.LineSize {
				if !yield(engine.Op{VA: localVA[i] + off, Compute: bsComputePerOpt}) {
					return
				}
				res := resultVA[i] + (k%resLines)*phys.LineSize
				if !yield(engine.Op{VA: res, Write: true}) {
					return
				}
				k++
			}
		}
	}
	phases = append(phases, engine.Parallel("price", priceBodies))

	// Parallel aggregation over the thread's own results (cached,
	// colored-local data).
	passes := int(p.scaled(bsAggrPasses))
	aggrBodies := make([]engine.Work, n)
	for i := range threads {
		i := i
		aggrBodies[i] = func(yield func(engine.Op) bool) {
			for pass := 0; pass < passes; pass++ {
				if !streamTouch(yield, resultVA[i], resBytes, false, 8) {
					return
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("aggregate", aggrBodies))
	return phases, nil
}
