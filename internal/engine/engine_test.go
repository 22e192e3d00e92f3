package engine

import (
	"errors"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 256 << 20

type rig struct {
	k  *kernel.Kernel
	ms *mem.System
	e  *Engine
}

func newRig(t *testing.T, cores []topology.CoreID) *rig {
	t.Helper()
	return newRigMem(t, cores, testMem)
}

func newRigMem(t *testing.T, cores []topology.CoreID, memBytes uint64) *rig {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(memBytes, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mem.New(top, m, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(top, m, kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := k.NewProcess()
	var threads []Thread
	for _, c := range cores {
		task, err := p.NewTask(c)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, Thread{Task: task, Heap: heap.New(task)})
	}
	e, err := New(ms, threads)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, ms: ms, e: e}
}

func computeWork(n int, cycles clock.Dur) Work {
	return func(yield func(Op) bool) {
		for i := 0; i < n; i++ {
			if !yield(Op{Compute: cycles}) {
				return
			}
		}
	}
}

func TestComputeOnlyRuntime(t *testing.T) {
	r := newRig(t, []topology.CoreID{0})
	res, err := r.e.Run([]Phase{Parallel("p", []Work{computeWork(10, 7)})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != 70 {
		t.Errorf("Runtime = %d, want 70", res.Runtime)
	}
	if res.TotalIdle != 0 {
		t.Errorf("TotalIdle = %d, want 0", res.TotalIdle)
	}
}

func TestBarrierIdleAccounting(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{Parallel("p", []Work{
		computeWork(10, 10), // ends at 100
		computeWork(30, 10), // ends at 300
	})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != 300 {
		t.Errorf("Runtime = %d, want 300 (slowest thread)", res.Runtime)
	}
	if res.ThreadIdle[0] != 200 || res.ThreadIdle[1] != 0 {
		t.Errorf("ThreadIdle = %v, want [200 0]", res.ThreadIdle)
	}
	if res.TotalIdle != 200 {
		t.Errorf("TotalIdle = %d", res.TotalIdle)
	}
	if res.ThreadRuntime[0] != 100 || res.ThreadRuntime[1] != 300 {
		t.Errorf("ThreadRuntime = %v", res.ThreadRuntime)
	}
	if res.MaxThreadRuntime() != 300 || res.MinThreadRuntime() != 100 {
		t.Errorf("Max/Min thread runtime = %d/%d", res.MaxThreadRuntime(), res.MinThreadRuntime())
	}
}

func TestSerialPhaseCountsNoIdle(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{
		Serial("init", 2, computeWork(10, 10)),
		Parallel("work", []Work{computeWork(5, 10), computeWork(5, 10)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != 150 {
		t.Errorf("Runtime = %d, want 100 serial + 50 parallel", res.Runtime)
	}
	if res.TotalIdle != 0 {
		t.Errorf("serial phase accumulated idle: %d", res.TotalIdle)
	}
	if res.ThreadRuntime[0] != 50 {
		t.Errorf("serial work leaked into parallel runtime: %v", res.ThreadRuntime)
	}
	if !res.Phases[1].Parallel || res.Phases[0].Parallel {
		t.Error("phase parallel flags wrong")
	}
}

func TestPhasesChainOnGlobalClock(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{
		Parallel("a", []Work{computeWork(1, 100), computeWork(1, 50)}),
		Parallel("b", []Work{computeWork(1, 50), computeWork(1, 100)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[1].Start != res.Phases[0].End {
		t.Errorf("phase b starts at %d, want %d", res.Phases[1].Start, res.Phases[0].End)
	}
	if res.Runtime != 200 {
		t.Errorf("Runtime = %d, want 200", res.Runtime)
	}
	// Each thread idled once for 50 cycles.
	if res.ThreadIdle[0] != 50 || res.ThreadIdle[1] != 50 {
		t.Errorf("ThreadIdle = %v", res.ThreadIdle)
	}
}

func TestMemoryAccessAdvancesClock(t *testing.T) {
	r := newRig(t, []topology.CoreID{0})
	th := r.e.Threads()[0]
	va, err := th.Task.Mmap(0, phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := func(yield func(Op) bool) {
		yield(Op{VA: va, Write: true})  // cold: fault + DRAM
		yield(Op{VA: va, Write: false}) // L1 hit
	}
	res, err := r.e.Run([]Phase{Parallel("p", []Work{body})})
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	if res.FaultCycles[0] != kcfg.FaultCost {
		t.Errorf("FaultCycles = %d, want %d", res.FaultCycles[0], kcfg.FaultCost)
	}
	mcfg := mem.DefaultConfig()
	minRuntime := kcfg.FaultCost + mcfg.L1.Latency // fault + final L1 hit at least
	if res.Runtime <= clock.Dur(minRuntime) {
		t.Errorf("Runtime = %d suspiciously small", res.Runtime)
	}
	st := r.ms.CoreStats(0)
	if st.Accesses != 2 || st.L1Hits != 1 || st.DRAMReads != 1 {
		t.Errorf("core stats = %+v", st)
	}
}

func TestSegfaultAborts(t *testing.T) {
	r := newRig(t, []topology.CoreID{0})
	body := func(yield func(Op) bool) {
		yield(Op{VA: 0xDEAD0000})
	}
	_, err := r.e.Run([]Phase{Parallel("p", []Work{body})})
	if !errors.Is(err, kernel.ErrSegfault) {
		t.Errorf("error = %v, want ErrSegfault", err)
	}
}

func TestNilBodySkipsThread(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4, 8})
	res, err := r.e.Run([]Phase{Parallel("p", []Work{
		computeWork(10, 10), nil, computeWork(5, 10),
	})})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThreadRuntime[1] != 0 || res.ThreadIdle[1] != 0 {
		t.Errorf("nil-body thread accounted: rt=%v idle=%v", res.ThreadRuntime, res.ThreadIdle)
	}
	if res.ThreadIdle[2] != 50 {
		t.Errorf("thread 2 idle = %d, want 50", res.ThreadIdle[2])
	}
}

func TestPhaseArityMismatch(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	if _, err := r.e.Run([]Phase{Parallel("p", []Work{computeWork(1, 1)})}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// A body names its heap blocks by slot: the engine makes each heap
// call at the body's turn and resolves each slot access to its block.
// Heap ops are not ops and are not traced.
func TestHeapDrivenWorkload(t *testing.T) {
	r := newRig(t, []topology.CoreID{0})
	th := r.e.Threads()[0]
	var events []TraceEvent
	r.e.SetTracer(func(e TraceEvent) { events = append(events, e) })
	body := func(yield func(Op) bool) {
		for k := 0; k < 64; k++ {
			if !yield(Malloc(k, 256)) || !yield(Op{Ref: Slot(k), VA: 8, Write: true, Compute: 2}) {
				return
			}
		}
	}
	res, err := r.e.Run([]Phase{Parallel("p", []Work{body})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == 0 {
		t.Fatal("no time elapsed")
	}
	if res.Ops != 64 || len(events) != 64 {
		t.Errorf("Ops = %d, traced %d, want 64 accesses and no heap ops", res.Ops, len(events))
	}
	if th.Heap.Stats().Mallocs != 64 {
		t.Errorf("Mallocs = %d", th.Heap.Stats().Mallocs)
	}
	seen := map[uint64]bool{}
	for i, ev := range events {
		if size, ok := th.Heap.SizeOf(ev.VA - 8); !ok || size != 256 || seen[ev.VA] {
			t.Fatalf("access %d at %#x is not 8 bytes into its own 256-byte block", i, ev.VA)
		}
		seen[ev.VA] = true
	}
	if r.k.Stats().Faults == 0 {
		t.Error("no faults recorded for heap-driven workload")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		r := newRig(t, []topology.CoreID{0, 4, 8, 12})
		bodies := make([]Work, 4)
		for i := range bodies {
			th := r.e.Threads()[i]
			i := i
			bodies[i] = func(yield func(Op) bool) {
				va, err := th.Task.Mmap(0, 64*phys.PageSize, 0)
				if err != nil {
					return
				}
				for j := uint64(0); j < 512; j++ {
					off := (j * 127 * uint64(i+1)) % (64 * phys.PageSize)
					if !yield(Op{VA: va + off, Write: j%3 == 0, Compute: clock.Dur(i)}) {
						return
					}
				}
			}
		}
		res, err := r.e.Run([]Phase{Parallel("p", bodies)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime || a.TotalIdle != b.TotalIdle {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Runtime, a.TotalIdle, b.Runtime, b.TotalIdle)
	}
	for i := range a.ThreadRuntime {
		if a.ThreadRuntime[i] != b.ThreadRuntime[i] {
			t.Fatalf("thread %d runtime differs", i)
		}
	}
}

func TestBankContentionSlowdown(t *testing.T) {
	// Two colored threads sharing ONE bank color finish later than
	// two threads with disjoint bank colors, all else equal.
	run := func(shareBank bool) clock.Dur {
		r := newRig(t, []topology.CoreID{0, 1})
		m := r.k.Mapping()
		local := m.BankColorsOfNode(0)
		for i, th := range r.e.Threads() {
			bc := local[0]
			if !shareBank && i == 1 {
				bc = local[1]
			}
			if _, err := th.Task.Mmap(uint64(bc)|kernel.SetMemColor, 0, kernel.ColorAlloc); err != nil {
				t.Fatal(err)
			}
		}
		bodies := make([]Work, 2)
		for i := range bodies {
			th := r.e.Threads()[i]
			bodies[i] = func(yield func(Op) bool) {
				va, err := th.Task.Mmap(0, 256*phys.PageSize, 0)
				if err != nil {
					return
				}
				// Stride by page to defeat caches and stress DRAM rows.
				for j := uint64(0); j < 2048; j++ {
					off := (j * 8192 * 13) % (256 * phys.PageSize)
					if !yield(Op{VA: va + off, Write: true}) {
						return
					}
				}
			}
		}
		res, err := r.e.Run([]Phase{Parallel("p", bodies)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime
	}
	shared := run(true)
	disjoint := run(false)
	if disjoint >= shared {
		t.Errorf("disjoint banks (%d) not faster than shared bank (%d)", disjoint, shared)
	}
}

func TestTracerReceivesOrderedEvents(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	var events []TraceEvent
	r.e.SetTracer(func(e TraceEvent) { events = append(events, e) })

	bodies := make([]Work, 2)
	vas := make([]uint64, 2)
	for i := range bodies {
		th := r.e.Threads()[i]
		va, err := th.Task.Mmap(0, 4*phys.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		vas[i] = va
		i := i
		bodies[i] = func(yield func(Op) bool) {
			for j := uint64(0); j < 16; j++ {
				if !yield(Op{VA: vas[i] + j*128, Write: true, Compute: clock.Dur(10 * (i + 1))}) {
					return
				}
			}
		}
	}
	res, err := r.e.Run([]Phase{Parallel("traced", bodies)})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 32 {
		t.Fatalf("tracer saw %d events, want 32", len(events))
	}
	// Events arrive in global processing order: Start must be
	// non-decreasing per thread and phase names set.
	last := map[int]clock.Time{}
	for i, e := range events {
		if e.Phase != "traced" {
			t.Fatalf("event %d phase %q", i, e.Phase)
		}
		if e.Start < last[e.Thread] {
			t.Fatalf("event %d: thread %d start went backwards", i, e.Thread)
		}
		last[e.Thread] = e.Start
		if e.Done <= e.Start {
			t.Fatalf("event %d: non-positive latency", i)
		}
	}
	_ = res
	// Removing the tracer stops delivery.
	r.e.SetTracer(nil)
	n := len(events)
	if _, err := r.e.Run([]Phase{Parallel("untraced", []Work{
		func(yield func(Op) bool) { yield(Op{VA: vas[0], Write: false}) }, nil,
	})}); err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Error("tracer fired after removal")
	}
}

func TestPhaseResultsIntegrity(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{
		Parallel("a", []Work{computeWork(3, 10), computeWork(5, 10)}),
		Serial("b", 2, computeWork(2, 10)),
		Parallel("c", []Work{computeWork(1, 10), computeWork(1, 10)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	for i, ph := range res.Phases {
		if ph.End < ph.Start {
			t.Errorf("phase %d ends before it starts", i)
		}
		if i > 0 && ph.Start != res.Phases[i-1].End {
			t.Errorf("phase %d not contiguous", i)
		}
		for tid, end := range ph.ThreadEnd {
			if end < ph.Start || end > ph.End {
				t.Errorf("phase %d thread %d end %d outside [%d,%d]",
					i, tid, end, ph.Start, ph.End)
			}
		}
	}
	if clock.Time(res.Runtime) != res.Phases[2].End {
		t.Errorf("Runtime %d != last phase end %d", res.Runtime, res.Phases[2].End)
	}
}

func TestNoWaitPhaseSkipsBarrier(t *testing.T) {
	// Thread 0 is fast, thread 1 slow in phase A; with nowait,
	// thread 0 starts phase B immediately while thread 1 is still in
	// A, so total runtime is each thread's own sum — and no idle is
	// charged for A.
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{
		NoWaitParallel("a", []Work{computeWork(1, 100), computeWork(1, 500)}),
		Parallel("b", []Work{computeWork(1, 400), computeWork(1, 10)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// t0: 100 + 400 = 500; t1: 500 + 10 = 510 -> runtime 510.
	if res.Runtime != 510 {
		t.Errorf("Runtime = %d, want 510 (nowait overlap)", res.Runtime)
	}
	// Idle only at B's barrier: t0 waits 10 cycles (510-500).
	if res.ThreadIdle[0] != 10 || res.ThreadIdle[1] != 0 {
		t.Errorf("ThreadIdle = %v, want [10 0]", res.ThreadIdle)
	}
	// With a barrier after A instead, runtime is 500 + 400 = 900.
	r2 := newRig(t, []topology.CoreID{0, 4})
	res2, err := r2.e.Run([]Phase{
		Parallel("a", []Work{computeWork(1, 100), computeWork(1, 500)}),
		Parallel("b", []Work{computeWork(1, 400), computeWork(1, 10)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Runtime != 900 {
		t.Errorf("barrier Runtime = %d, want 900", res2.Runtime)
	}
	if !(res.Runtime < res2.Runtime) {
		t.Error("nowait did not overlap execution")
	}
}

func TestFinalNoWaitPhaseStillSynchronizes(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{
		NoWaitParallel("only", []Work{computeWork(1, 100), computeWork(1, 300)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The last phase always closes with a barrier so the program has
	// an end time.
	if res.Runtime != 300 {
		t.Errorf("Runtime = %d, want 300", res.Runtime)
	}
	if res.ThreadIdle[0] != 200 {
		t.Errorf("final-phase idle = %v", res.ThreadIdle)
	}
}

// Algorithm 3's structure: a nowait loop phase followed by a barrier
// phase that records end[tid] — idle must equal max(end)-end[tid]
// computed over the COMBINED region.
func TestNoWaitAlgorithm3Semantics(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4, 8})
	res, err := r.e.Run([]Phase{
		NoWaitParallel("for-nowait", []Work{
			computeWork(1, 50), computeWork(1, 200), computeWork(1, 120),
		}),
		Parallel("tail", []Work{
			computeWork(1, 30), computeWork(1, 30), computeWork(1, 30),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ends: 80, 230, 150 -> barrier at 230.
	want := []clock.Dur{150, 0, 80}
	for i, w := range want {
		if res.ThreadIdle[i] != w {
			t.Errorf("thread %d idle = %d, want %d", i, res.ThreadIdle[i], w)
		}
	}
	if res.Runtime != 230 {
		t.Errorf("Runtime = %d, want 230", res.Runtime)
	}
}

func TestOpBudgetStopsRunaway(t *testing.T) {
	r := newRig(t, []topology.CoreID{0})
	r.e.SetOpBudget(1000)
	infinite := func(yield func(Op) bool) {
		for {
			if !yield(Op{Compute: 1}) {
				return
			}
		}
	}
	_, err := r.e.Run([]Phase{Parallel("spin", []Work{infinite})})
	if err == nil {
		t.Fatal("runaway body not stopped")
	}
	// Budget resets behaviour: restoring default allows normal runs.
	r2 := newRig(t, []topology.CoreID{0})
	r2.e.SetOpBudget(0)
	if _, err := r2.e.Run([]Phase{Parallel("ok", []Work{computeWork(10, 1)})}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorReturnsPartialResult(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	res, err := r.e.Run([]Phase{
		Parallel("good", []Work{computeWork(2, 10), computeWork(2, 10)}),
		Parallel("bad", []Work{
			func(yield func(Op) bool) { yield(Op{VA: 0xBAD0000}) },
			computeWork(1, 10),
		}),
	})
	if err == nil {
		t.Fatal("segfaulting run succeeded")
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if len(res.Phases) != 2 {
		t.Errorf("partial result has %d phases, want 2", len(res.Phases))
	}
	if res.Phases[0].End == res.Phases[0].Start {
		t.Error("good phase lost from partial result")
	}
}
