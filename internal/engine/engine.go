// Package engine executes simulated multi-threaded programs against
// the machine model: a conservative discrete-event simulator in which
// every thread owns a virtual clock, advances through its memory
// accesses in global time order, and synchronizes with the other
// threads at the implicit barrier ending each parallel phase —
// OpenMP-style fork-join execution.
//
// Idle time is measured exactly as in the paper's Algorithm 3: for
// each parallel phase the engine records every thread's completion
// instant end[tid]; the barrier releases at max(end), and thread tid
// accumulates idle[tid] += max(end) - end[tid].
//
// Thread bodies are ordinary Go functions written in range-over-func
// style (Work). The engine pulls a body's ops in blocks, one
// coroutine switch per block, and executes them one at a time on the
// thread whose clock is earliest, so kernel and memory-system state
// always mutate in virtual-time order and runs are deterministic.
// Heap calls travel inside the op stream as slot ops (Malloc, Free,
// Slot) and run at their thread's turn; Sync hands a body the turn
// itself, for code that must touch state shared with other threads.
package engine

import (
	"fmt"
	"iter"
	"sync"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Op is one step of a simulated thread: optional compute cycles
// followed by at most one memory access. Ref, when non-zero, makes
// the op name a heap block by its per-thread slot instead of by
// address (build it with Slot, Malloc, Free or Sync):
//
//   - Slot(k): an access like any other, to the block in slot k at
//     offset VA. It resolves to the block's address at its turn, and
//     the TraceEvent carries that address.
//   - Malloc(k, size): allocate size bytes on the thread's heap and
//     put the block in slot k.
//   - Free(k): free the block in slot k and empty the slot.
//   - Sync(): end the body's current block (see Work).
//
// Malloc, Free and Sync are not ops: they take no simulated time,
// count in neither Result.Ops nor the op budget, and emit no trace
// event. A heap call runs in the same turn as its thread's next
// counted op, or in the thread's final turn if none follows, which is
// where a direct Heap call placed between the same two yields would
// run. Slots belong to a thread and survive across the phases of one
// Engine. An access to an empty slot, a free of an empty slot and a
// failed heap call each end Run with an error naming the thread.
//
// Op keeps at most four fields: Go's SSA backend keeps a struct in
// registers only up to four fields, and the event loop copies an Op
// per step (DESIGN.md Sec. 9).
type Op struct {
	Compute clock.Dur // compute cycles before the access
	VA      uint64    // virtual address (0 means compute-only); slot offset or Malloc size
	Write   bool
	Ref     uint32 // slot op kind and slot; 0 for a plain op
}

// Slot-op encoding: the kind sits in Ref's top bits, the slot below.
const (
	refSlotBits        = 28
	refSlotMask uint32 = 1<<refSlotBits - 1
	refKindMask        = ^refSlotMask
	refAt       uint32 = 1 << refSlotBits
	refMalloc   uint32 = 2 << refSlotBits
	refFree     uint32 = 3 << refSlotBits
	refSync     uint32 = 4 << refSlotBits
)

// slotRef packs a slot op's Ref. A slot outside [0, 2^28) is a bug in
// the body that names it.
func slotRef(kind uint32, slot int) uint32 {
	if slot < 0 || slot > int(refSlotMask) {
		panic(fmt.Sprintf("engine: heap slot %d outside [0, %d]", slot, refSlotMask))
	}
	return kind | uint32(slot)
}

// Slot returns the Ref of an access to the block in heap slot k: the
// op's VA is then the offset into the block.
func Slot(k int) uint32 { return slotRef(refAt, k) }

// Malloc returns the op that allocates size bytes on the thread's
// heap into slot k. A block already in slot k is not freed; it just
// loses its handle, as a pointer variable would.
func Malloc(k int, size uint64) Op { return Op{VA: size, Ref: slotRef(refMalloc, k)} }

// Free returns the op that frees the block in slot k.
func Free(k int) Op { return Op{Ref: slotRef(refFree, k)} }

// Sync returns the op that ends the body's current block: the body's
// code after it runs at the thread's next turn (see Work).
func Sync() Op { return Op{Ref: refSync} }

// Work is a thread body: it yields Ops in program order. The yield
// function returns false when the engine aborts the run; the body
// must then return promptly.
//
// The engine pulls ops in blocks: a body runs ahead of the simulated
// clock until it has yielded a block's worth of ops (or returns), and
// the block then executes one op per turn. A body may therefore read
// or write state shared with other threads, such as a heap, a
// process mapping or a shared loop cursor, only before its first
// yield or right after yielding Sync(): both run at the thread's own
// turn, in virtual-time order. Everywhere else it must be pure. Heap
// blocks are named by slot (Slot, Malloc, Free), so that the engine
// makes the heap call at the op's turn.
type Work func(yield func(Op) bool)

// Thread couples a kernel task (whose pinned core issues the
// accesses and whose colors govern its page faults) with its heap
// arena.
type Thread struct {
	Task *kernel.Task
	Heap *heap.Heap
}

// Phase is one program section. Entry i of Work is thread i's body; a
// nil entry means the thread does not participate (it waits at the
// phase boundary without accumulating barrier idle unless the phase
// is parallel, i.e. has two or more participants).
//
// NoWait removes the implicit barrier at the END of the phase, like
// `#pragma omp for nowait` (which the paper's Algorithm 3 uses):
// each thread flows into the next phase at its own completion
// instant, and no idle time is charged for this phase. The final
// phase of a run always synchronizes so the program has a defined
// end time.
type Phase struct {
	Name   string
	Work   []Work
	NoWait bool
}

// NoWaitParallel builds a barrier-less parallel phase.
func NoWaitParallel(name string, bodies []Work) Phase {
	return Phase{Name: name, Work: bodies, NoWait: true}
}

// Serial builds a phase where only the master (thread 0 of n) runs.
func Serial(name string, n int, master Work) Phase {
	w := make([]Work, n)
	w[0] = master
	return Phase{Name: name, Work: w}
}

// Parallel builds a phase from one body per thread.
func Parallel(name string, bodies []Work) Phase {
	return Phase{Name: name, Work: bodies}
}

// PhaseResult captures one phase's timing.
type PhaseResult struct {
	Name     string
	Start    clock.Time
	End      clock.Time // barrier release = max thread end
	Parallel bool       // two or more participants
	// ThreadEnd[i] is thread i's completion instant (its phase
	// start for non-participants).
	ThreadEnd []clock.Time
}

// Result aggregates a full program run.
type Result struct {
	Runtime clock.Dur // total program runtime (all phases)
	// ThreadRuntime[i] is the busy time thread i spent inside
	// parallel phases (paper Fig. 13).
	ThreadRuntime []clock.Dur
	// ThreadIdle[i] is the barrier wait accumulated by thread i
	// across parallel phases (paper Fig. 14, Algorithm 3).
	ThreadIdle []clock.Dur
	// TotalIdle is the sum over threads (paper Fig. 12).
	TotalIdle clock.Dur
	// FaultCycles[i] is the simulated time thread i spent in page
	// faults (included in its runtime).
	FaultCycles []clock.Dur
	// Ops is the number of thread operations executed across all
	// phases (compute steps and memory accesses), the work unit
	// behind the benchmark harness's ops/sec figures.
	Ops    uint64
	Phases []PhaseResult
}

// MaxThreadRuntime returns the slowest thread's parallel-phase time.
func (r *Result) MaxThreadRuntime() clock.Dur { return maxDur(r.ThreadRuntime) }

// MinThreadRuntime returns the fastest thread's parallel-phase time.
func (r *Result) MinThreadRuntime() clock.Dur {
	if len(r.ThreadRuntime) == 0 {
		return 0
	}
	min := r.ThreadRuntime[0]
	for _, d := range r.ThreadRuntime[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

func maxDur(ds []clock.Dur) clock.Dur {
	var m clock.Dur
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// TraceEvent describes one executed memory access, delivered to the
// engine's tracer in virtual-time order.
type TraceEvent struct {
	Thread      int
	Phase       string
	VA          uint64
	PA          phys.Addr
	Write       bool
	Start       clock.Time // instant the access was issued
	Done        clock.Time // completion instant
	Level       mem.Level  // where the access was served
	FaultCycles clock.Dur  // page-fault overhead included in Done-Start
}

// Tracer receives every executed access. Must not retain the event
// past the call.
type Tracer func(TraceEvent)

// Engine runs programs on one memory system. Create a fresh Engine
// (and memory system) per experiment run.
type Engine struct {
	mem     *mem.System
	threads []Thread
	now     clock.Time
	tracer  Tracer
	// hookMu guards the audit hook: SetAuditHook may race with a Run
	// driven from another goroutine (tests wire auditors while a
	// server-backed run is in flight), and a torn function-value read
	// is undefined behaviour. The event loop itself stays lock-free —
	// the hook is read once per phase barrier, never per access.
	//tintvet:ignore cycleclock: hookMu guards the test-installed audit hook, not event-loop state
	hookMu   sync.Mutex
	audit    func() error //tintvet:guardedby hookMu
	barrier  BarrierHook  //tintvet:guardedby hookMu
	opBudget uint64
	// release[i] is thread i's personal start time for the next
	// phase (diverges from `now` after a NoWait phase).
	release []clock.Time
	// slots[i] holds thread i's heap slots (block VAs, 0 = empty).
	slots [][]uint64
}

// SetTracer installs (or, with nil, removes) an access tracer.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// SetAuditHook installs a function the engine calls after every phase
// (and nil removes it). Tests hook the invariant auditor
// (internal/invariant) here so kernel bookkeeping is cross-checked at
// every barrier of every simulated program; a non-nil return aborts
// the run with that error. The hook is a plain function value — no
// build tags — and is never set outside tests.
func (e *Engine) SetAuditHook(h func() error) {
	e.hookMu.Lock() //tintvet:ignore cycleclock: hook installation, outside the event loop
	defer e.hookMu.Unlock()
	e.audit = h
}

// auditHook snapshots the installed hook for one barrier call.
func (e *Engine) auditHook() func() error {
	e.hookMu.Lock() //tintvet:ignore cycleclock: once-per-barrier hook read, not per-access state
	defer e.hookMu.Unlock()
	return e.audit
}

// BarrierHook is phase-barrier daemon work (see SetBarrierHook): it
// runs while every thread is parked at the barrier and returns the
// simulated cycles the work cost, which the engine charges to the
// whole program by extending the barrier — all threads resume that
// much later, exactly as if a kernel daemon had held them. A non-nil
// error aborts the run.
type BarrierHook func(phase string) (clock.Dur, error)

// SetBarrierHook installs a hook the engine calls at every phase
// BARRIER — after the phase's threads have synchronized, before the
// audit hook — and nil removes it. NoWait phases have no barrier and
// do not trigger it (except the final phase, which always
// synchronizes). The adaptive policy engine hooks Task.Repolicy and
// CompactStep here: the barrier is the one instant no thread holds a
// translation mid-flight, so a recolor's TLB flush and the compaction
// daemon's page moves are safe without extra synchronization.
func (e *Engine) SetBarrierHook(h BarrierHook) {
	e.hookMu.Lock() //tintvet:ignore cycleclock: hook installation, outside the event loop
	defer e.hookMu.Unlock()
	e.barrier = h
}

// barrierHook snapshots the installed hook for one barrier call.
func (e *Engine) barrierHook() BarrierHook {
	e.hookMu.Lock() //tintvet:ignore cycleclock: once-per-barrier hook read, not per-access state
	defer e.hookMu.Unlock()
	return e.barrier
}

// defaultOpBudget guards against runaway thread bodies (an infinite
// yield loop would otherwise hang the simulation silently).
// Overridable through SetOpBudget for genuinely enormous runs.
var defaultOpBudget uint64 = 1 << 33

// SetOpBudget caps the ops a single thread may execute within one
// phase (0 restores the default of 2^33). The budget is per thread,
// not per phase: a phase with many threads each under the budget is
// fine, and only a genuinely runaway body — one thread yielding more
// than the budget — trips it.
func (e *Engine) SetOpBudget(n uint64) {
	if n == 0 {
		n = defaultOpBudget
	}
	e.opBudget = n
}

// New creates an engine for the given threads.
func New(ms *mem.System, threads []Thread) (*Engine, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("engine: no threads")
	}
	for i, th := range threads {
		if th.Task == nil {
			return nil, fmt.Errorf("engine: thread %d has no task", i)
		}
	}
	return &Engine{mem: ms, threads: threads, opBudget: defaultOpBudget,
		slots: make([][]uint64, len(threads))}, nil
}

// Mem returns the engine's memory system.
func (e *Engine) Mem() *mem.System { return e.mem }

// Threads returns the engine's thread table.
func (e *Engine) Threads() []Thread { return e.threads }

// Now returns the global virtual clock (the last barrier release).
func (e *Engine) Now() clock.Time { return e.now }

// opBatch is how many ops a body hands the engine per coroutine
// switch. The body-side adapter (blockify) accumulates its yields into
// a block and performs one real iter.Pull handoff per full block, so
// the goroutine-switch cost is paid once per opBatch ops instead of
// once per op.
const opBatch = 1024

// blockify adapts a per-op body into a per-block iterator: the body's
// yields append to a reused buffer that is surfaced to the consumer
// when full, at a Sync, or at body exit. Sync is never buffered, and a
// Sync with nothing buffered needs no handoff: the body is then
// already running at its thread's turn. No block is ever empty; the
// consumer reads an empty block as the end of the body. The consumer
// must finish with a block before requesting the next one, which
// iter.Pull's strict alternation guarantees, so reusing the buffer is
// safe.
func blockify(w Work) iter.Seq[[]Op] {
	return func(yield func([]Op) bool) {
		buf := make([]Op, 0, opBatch)
		stopped := false
		w(func(op Op) bool {
			if op.Ref != refSync {
				buf = append(buf, op)
				if len(buf) < opBatch {
					return true
				}
			} else if len(buf) == 0 {
				return true
			}
			if !yield(buf) {
				stopped = true
				return false
			}
			buf = buf[:0]
			return true
		})
		if !stopped && len(buf) > 0 {
			yield(buf)
		}
	}
}

// runnerState is one live thread within a phase.
type runnerState struct {
	id   int
	time clock.Time
	ops  uint64 // ops this thread executed in the current phase
	// nextBlock pulls the body's next block; stop ends the body.
	nextBlock func() ([]Op, bool)
	stop      func()
	// buf is the current block. buf[pos:ready] are plain ops whose
	// slot references, if any, are resolved; stage refills that run
	// when it is spent.
	buf   []Op
	pos   int
	ready int
}

// stage runs the heap ops due at the thread's current turn and
// prepares a non-empty run of plain ops for it, pulling blocks from
// the body as needed. It reports false when the body has finished.
//
// It resolves slot accesses in place up to the next heap op, which
// may change a slot only at a later turn. An access to an empty slot
// stops the run, so its error surfaces at that access's own turn.
func (e *Engine) stage(r *runnerState) (bool, error) {
	for {
		if r.pos == len(r.buf) {
			buf, ok := r.nextBlock()
			if !ok || len(buf) == 0 {
				return false, nil
			}
			r.buf, r.pos = buf, 0
		}
		for ; r.pos < len(r.buf); r.pos++ {
			op := r.buf[r.pos]
			if kind := op.Ref & refKindMask; kind != refMalloc && kind != refFree {
				break
			}
			if err := e.heapOp(r.id, op); err != nil {
				return false, err
			}
		}
		if r.pos == len(r.buf) {
			continue
		}
		slots := e.slots[r.id]
		end := r.pos
		for ; end < len(r.buf); end++ {
			op := &r.buf[end]
			if op.Ref == 0 {
				continue
			}
			k := int(op.Ref & refSlotMask)
			if op.Ref&refKindMask != refAt || k >= len(slots) || slots[k] == 0 {
				break
			}
			op.VA += slots[k]
			op.Ref = 0
		}
		if end == r.pos {
			if ref := r.buf[end].Ref; ref&refKindMask == refAt {
				return false, fmt.Errorf("thread %d: access to empty heap slot %d", r.id, ref&refSlotMask)
			}
			return false, fmt.Errorf("thread %d: op with invalid Ref %#x", r.id, r.buf[end].Ref)
		}
		r.ready = end
		return true, nil
	}
}

// heapOp makes the heap call of thread id's Malloc or Free op.
func (e *Engine) heapOp(id int, op Op) error {
	h := e.threads[id].Heap
	if h == nil {
		return fmt.Errorf("thread %d: heap slot op on a thread with no heap", id)
	}
	slots, k := e.slots[id], int(op.Ref&refSlotMask)
	if op.Ref&refKindMask == refMalloc {
		va, err := h.Malloc(op.VA)
		if err != nil {
			return fmt.Errorf("thread %d: malloc of %d bytes into heap slot %d: %w", id, op.VA, k, err)
		}
		if k >= len(slots) {
			slots = append(slots, make([]uint64, k+1-len(slots))...)
			e.slots[id] = slots
		}
		slots[k] = va
		return nil
	}
	if k >= len(slots) || slots[k] == 0 {
		return fmt.Errorf("thread %d: free of empty heap slot %d", id, k)
	}
	if err := h.Free(slots[k]); err != nil {
		return fmt.Errorf("thread %d: free of heap slot %d: %w", id, k, err)
	}
	slots[k] = 0
	return nil
}

// Run executes the phases in order and returns the aggregated
// result. On error (e.g. a thread ran out of colored memory) the
// partial result is returned alongside the error.
func (e *Engine) Run(phases []Phase) (*Result, error) {
	n := len(e.threads)
	res := &Result{
		ThreadRuntime: make([]clock.Dur, n),
		ThreadIdle:    make([]clock.Dur, n),
		FaultCycles:   make([]clock.Dur, n),
	}
	if e.release == nil {
		e.release = make([]clock.Time, n)
		for i := range e.release {
			e.release[i] = e.now
		}
	}
	for pi, ph := range phases {
		if len(ph.Work) != n {
			return res, fmt.Errorf("engine: phase %q has %d bodies for %d threads",
				ph.Name, len(ph.Work), n)
		}
		barrier := !ph.NoWait || pi == len(phases)-1
		pr, err := e.runPhase(ph, res, barrier)
		res.Phases = append(res.Phases, pr)
		if err != nil {
			return res, fmt.Errorf("engine: phase %q: %w", ph.Name, err)
		}
		if hook := e.barrierHook(); barrier && hook != nil {
			cost, err := hook(ph.Name)
			if err != nil {
				return res, fmt.Errorf("engine: barrier hook after phase %q: %w", ph.Name, err)
			}
			if cost > 0 {
				// Daemon work extends the barrier: every thread resumes
				// after it, and the program as a whole pays for it.
				e.now += clock.Time(cost)
				for i := range e.release {
					e.release[i] = e.now
				}
			}
		}
		if audit := e.auditHook(); audit != nil {
			if err := audit(); err != nil {
				return res, fmt.Errorf("engine: audit after phase %q: %w", ph.Name, err)
			}
		}
	}
	res.Runtime = clock.Dur(e.now)
	for _, d := range res.ThreadIdle {
		res.TotalIdle += d
	}
	return res, nil
}

func (e *Engine) runPhase(ph Phase, res *Result, barrier bool) (PhaseResult, error) {
	start := e.now
	pr := PhaseResult{
		Name:      ph.Name,
		Start:     start,
		ThreadEnd: make([]clock.Time, len(e.threads)),
	}
	for i := range pr.ThreadEnd {
		pr.ThreadEnd[i] = e.release[i]
	}

	// Materialize pull-iterators for every participant. Each thread
	// begins at its personal release time (== the last barrier, or
	// its own previous completion after a NoWait phase).
	var live []*runnerState
	participants := 0
	for i, w := range ph.Work {
		if w == nil {
			continue
		}
		participants++
		r := &runnerState{id: i, time: e.release[i]}
		r.nextBlock, r.stop = iter.Pull(blockify(w))
		live = append(live, r)
	}
	pr.Parallel = participants >= 2
	defer func() {
		for _, r := range live {
			r.stop()
		}
	}()

	// The conservative discrete-event loop: always step the earliest
	// thread (ties by id). Because (time, id) is a strict total order
	// the event queue selects exactly the thread the former linear
	// scan did.
	q, runErr := newEventQueue(live)
	for runErr == nil && q.Len() > 0 {
		r := q.Min()
		if r.ops++; r.ops > e.opBudget {
			runErr = fmt.Errorf("thread %d exceeded the per-thread op budget of %d (runaway thread body?)",
				r.id, e.opBudget)
			break
		}
		if r.pos == r.ready {
			ok, err := e.stage(r)
			if err != nil {
				runErr = err
				pr.ThreadEnd[r.id] = r.time
				break
			}
			if !ok {
				pr.ThreadEnd[r.id] = r.time
				r.stop()
				q.PopMin()
				continue
			}
		}
		op := r.buf[r.pos]
		r.pos++
		res.Ops++
		r.time += op.Compute
		if op.VA != 0 {
			th := e.threads[r.id]
			start := r.time
			pa, faultCost, err := th.Task.Translate(op.VA)
			if err != nil {
				runErr = fmt.Errorf("thread %d at %#x: %w", r.id, op.VA, err)
				pr.ThreadEnd[r.id] = r.time
				break
			}
			r.time += faultCost
			res.FaultCycles[r.id] += faultCost
			done, level := e.mem.AccessLevel(th.Task.Core(), pa, op.Write, r.time)
			r.time = done
			if e.tracer != nil {
				e.tracer(TraceEvent{
					Thread: r.id, Phase: ph.Name,
					VA: op.VA, PA: pa, Write: op.Write,
					Start: start, Done: done, Level: level,
					FaultCycles: faultCost,
				})
			}
		}
		if err := q.FixMin(); err != nil {
			runErr = err
			pr.ThreadEnd[r.id] = r.time
			break
		}
	}

	end := start
	for _, t := range pr.ThreadEnd {
		if t > end {
			end = t
		}
	}
	pr.End = end
	if pr.Parallel {
		for i, w := range ph.Work {
			if w == nil {
				continue
			}
			res.ThreadRuntime[i] += clock.Dur(pr.ThreadEnd[i] - e.release[i])
			if barrier {
				res.ThreadIdle[i] += clock.Dur(end - pr.ThreadEnd[i])
			}
		}
	}
	if barrier {
		// Implicit barrier: everyone waits for the slowest
		// participant, then starts the next phase together.
		for i := range e.release {
			e.release[i] = end
		}
		e.now = end
	} else {
		// nowait: each participant flows on from its own end;
		// non-participants keep their previous release.
		for i, w := range ph.Work {
			if w != nil {
				e.release[i] = pr.ThreadEnd[i]
			}
		}
		e.now = end
	}
	return pr, runErr
}
