// Package workload defines the simulated programs of the paper's
// evaluation (Sec. V): the synthetic alternating-stride benchmark and
// access-pattern proxies for the six OpenMP benchmarks (SPEC lbm,
// art, equake; Parsec bodytrack, freqmine, blackscholes).
//
// The proxies are substitutions, not ports (see DESIGN.md): each
// encodes the memory traits the paper's analysis attributes to the
// original —
//
//	lbm          : large streaming stencil, first-touch partitioned,
//	               highly memory intensive (largest paper gain)
//	art          : neural-net matching with heavy data reuse
//	               (LLC-sensitive)
//	equake       : sparse FEM gather/scatter (bank/row-buffer
//	               sensitive)
//	bodytrack    : particle filter alternating parallel/serial
//	               phases with a shared model
//	freqmine     : FP-tree pointer chasing over many small heap
//	               nodes (needs bank spread, LLC capacity)
//	blackscholes : master-thread input load, compute-bound parallel
//	               section (smallest paper gain)
//
// Every workload is deterministic for a fixed Params.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Params tunes a workload build.
type Params struct {
	// Seed drives every data-dependent access pattern.
	Seed int64
	// Scale multiplies the default working-set sizes and iteration
	// counts (1.0 = evaluation size; tests use ~0.05-0.2).
	Scale float64
}

func (p Params) scaled(n uint64) uint64 {
	if p.Scale <= 0 {
		return n
	}
	v := uint64(float64(n) * p.Scale)
	if v == 0 {
		v = 1
	}
	return v
}

// BuildFunc constructs the phase list for the given threads.
type BuildFunc func(threads []engine.Thread, p Params) ([]engine.Phase, error)

// Workload names a buildable simulated program.
type Workload struct {
	Name        string
	Suite       string // "synthetic", "SPEC" or "Parsec"
	Description string
	Build       BuildFunc
}

// Registry returns all workloads: the paper's seven in presentation
// order, then the four driver shapes ported from golang.org/x/
// benchmarks (at their default knob settings; see FromSpec for
// parameterized instances).
func Registry() []Workload {
	return []Workload{
		Synthetic(),
		LBM(),
		Art(),
		Equake(),
		Bodytrack(),
		Freqmine(),
		Blackscholes(),
		Garbage(GarbageSpec{}),
		GCLatency(GCLatencySpec{}),
		HTTP(HTTPSpec{}),
		JSON(JSONSpec{}),
		HeteroMix(HeteroSpec{}),
	}
}

// StandardSuite returns the six SPEC/Parsec proxies (Figs. 11-14).
func StandardSuite() []Workload {
	return []Workload{LBM(), Art(), Equake(), Bodytrack(), Freqmine(), Blackscholes()}
}

// ByName looks a workload up by its registry name.
func ByName(name string) (Workload, error) {
	for _, w := range Registry() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// --- shared building blocks ---

// mmapChunk reserves a page-aligned region of at least bytes on the
// thread's task. Large regions use Mmap directly (one region) rather
// than the size-class heap, matching how the real benchmarks allocate
// their big arrays with malloc (which forwards to mmap for large
// requests).
func mmapChunk(th engine.Thread, bytes uint64) (uint64, error) {
	return th.Task.Mmap(0, bytes, 0)
}

// streamTouch yields one access per cache line over [va, va+bytes).
func streamTouch(yield func(engine.Op) bool, va, bytes uint64, write bool, compute clock.Dur) bool {
	for off := uint64(0); off < bytes; off += phys.LineSize {
		if !yield(engine.Op{VA: va + off, Write: write, Compute: compute}) {
			return false
		}
	}
	return true
}

// rngFor derives a per-thread RNG so threads are decorrelated but the
// whole run is reproducible.
func rngFor(p Params, tid int) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1000003 + int64(tid)*7919 + 17))
}

// alignLine rounds va down to a cache-line boundary.
func alignLine(va uint64) uint64 { return va &^ (phys.LineSize - 1) }
