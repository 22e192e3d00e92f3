package bench

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// RunSpec names one experiment cell.
type RunSpec struct {
	Workload workload.Workload
	Config   Config
	Policy   policy.Policy
	Params   workload.Params
	// ChurnSeed overrides the machine's zone-aging seed (0 keeps
	// the default). RunRepeated varies it per repetition so error
	// bars reflect physical-placement variation, the dominant
	// run-to-run noise on the real hardware.
	ChurnSeed int64
}

// RunMetrics captures everything one run produces.
type RunMetrics struct {
	Runtime       clock.Dur
	TotalIdle     clock.Dur
	ThreadRuntime []clock.Dur
	ThreadIdle    []clock.Dur
	// ThreadMem[i] holds the memory counters of thread i's core (each
	// thread runs on a core of its own); ThreadFaultCycles[i] is the
	// simulated time thread i spent in page faults.
	ThreadMem         []mem.CoreStats
	ThreadFaultCycles []clock.Dur
	FaultCycles       clock.Dur // summed over threads
	Ops               uint64    // engine ops executed (perf accounting)
	// Memory-system ratios (0..1).
	RemoteDRAMFrac  float64 // remote / all DRAM demand reads
	L3MissRate      float64
	RowConflictFrac float64 // row conflicts / DRAM accesses
}

// Run executes one cell on fresh machine state.
func Run(mach *Machine, spec RunSpec) (RunMetrics, error) {
	return RunInstrumented(mach, spec, nil)
}

// RunInstrumented is Run with a hook between machine boot and
// workload execution: instrument (if non-nil) receives the freshly
// built kernel and engine after tasks are created and colored but
// before any page is mapped, so callers can wire fault injectors,
// audit hooks or tracers into the run. The chaos harness is the main
// customer. Instrument functions must obey the scatter/gather
// determinism contract (pure function of the spec; no shared mutable
// state), or -parallel stops being output-neutral.
func RunInstrumented(mach *Machine, spec RunSpec, instrument func(*kernel.Kernel, *engine.Engine)) (RunMetrics, error) {
	var out RunMetrics
	ms, err := mem.New(mach.Topo, mach.Mapping, mach.MemCfg)
	if err != nil {
		return out, err
	}
	k, err := mach.NewKernel(spec.ChurnSeed)
	if err != nil {
		return out, err
	}
	asn, err := policy.Plan(spec.Policy, mach.Mapping, mach.Topo, spec.Config.Cores)
	if err != nil {
		return out, err
	}
	proc := k.NewProcess()
	threads := make([]engine.Thread, len(spec.Config.Cores))
	for i, core := range spec.Config.Cores {
		task, err := proc.NewTask(core)
		if err != nil {
			return out, err
		}
		if err := policy.Apply(task, asn[i]); err != nil {
			return out, err
		}
		threads[i] = engine.Thread{Task: task, Heap: heap.New(task)}
	}
	e, err := engine.New(ms, threads)
	if err != nil {
		return out, err
	}
	if instrument != nil {
		instrument(k, e)
	}
	phases, err := spec.Workload.Build(threads, spec.Params)
	if err != nil {
		return out, err
	}
	res, err := e.Run(phases)
	if err != nil {
		return out, fmt.Errorf("bench: %s/%s/%s: %w",
			spec.Workload.Name, spec.Config.Name, spec.Policy, err)
	}

	out.Runtime = res.Runtime
	out.TotalIdle = res.TotalIdle
	out.ThreadRuntime = res.ThreadRuntime
	out.ThreadIdle = res.ThreadIdle
	out.Ops = res.Ops
	out.ThreadMem = make([]mem.CoreStats, len(spec.Config.Cores))
	for i, core := range spec.Config.Cores {
		out.ThreadMem[i] = ms.CoreStats(core)
	}
	out.ThreadFaultCycles = res.FaultCycles
	for _, f := range res.FaultCycles {
		out.FaultCycles += f
	}
	out.RemoteDRAMFrac = ms.TotalStats().RemoteFrac()
	l3 := ms.L3Stats()
	if l3.Accesses > 0 {
		out.L3MissRate = float64(l3.Misses) / float64(l3.Accesses)
	}
	d := ms.DRAM().TotalStats()
	if d.Accesses > 0 {
		out.RowConflictFrac = float64(d.RowConflicts) / float64(d.Accesses)
	}
	return out, nil
}

// Cell aggregates repeated runs of one spec (the paper repeats every
// experiment ten times and reports averages with min/max error bars).
type Cell struct {
	Spec    RunSpec
	Runtime stats.Summary
	Idle    stats.Summary
	// Ops is the engine-op total across the repetitions, the work
	// unit behind the benchmark harness's ops/sec figures.
	Ops uint64
	// Last holds the final repetition's full metrics (per-thread
	// vectors, memory ratios).
	Last RunMetrics
}

// RunRepeated executes the cell `repeats` times with consecutive
// seeds and summarizes.
func RunRepeated(mach *Machine, spec RunSpec, repeats int) (Cell, error) {
	if repeats < 1 {
		repeats = 1
	}
	cell := Cell{Spec: spec}
	var runtimes, idles []float64
	for r := 0; r < repeats; r++ {
		rs := spec
		rs.Params.Seed = spec.Params.Seed + int64(r)*10007
		rs.ChurnSeed = mach.KernCfg.ChurnSeed + int64(r)*131
		m, err := Run(mach, rs)
		if err != nil {
			return cell, err
		}
		runtimes = append(runtimes, float64(m.Runtime))
		idles = append(idles, float64(m.TotalIdle))
		cell.Ops += m.Ops
		cell.Last = m
	}
	cell.Runtime = stats.Summarize(runtimes)
	cell.Idle = stats.Summarize(idles)
	return cell, nil
}
