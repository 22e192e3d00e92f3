// Package tintmalloc is a full-system simulation of TintMalloc, the
// controller-aware page-coloring allocator of Pan, Gownivaripalli and
// Mueller (IPDPS 2016), together with the NUMA machine it needs: a
// dual-socket multicore with per-node memory controllers, banked DRAM
// with open-row timing, a shared last-level cache, a Linux-style
// kernel with buddy zones, first-touch page tables and the paper's
// colored free lists, a user-level heap, and a deterministic
// fork-join execution engine that measures runtime and barrier idle
// time.
//
// The package exposes the same one-line opt-in the paper advertises:
// create a thread pinned to a core, then
//
//	thread.SetMemColor(c)   // == mmap(c|SET_MEM_COLOR, 0, prot|COLOR_ALLOC, ...)
//	thread.SetLLCColor(c)
//
// and every subsequent heap allocation the thread first-touches is
// served from physical frames of those colors. Policy planning for
// whole thread teams (MEM+LLC, BPM, the "part" variants of the
// paper's evaluation) is available through ApplyPolicy.
//
// Quick start:
//
//	sys, _ := tintmalloc.NewSystem(tintmalloc.Config{})
//	t0, _ := sys.AddThread(0) // pinned to core 0 (node 0)
//	t0.SetMemColor(0)         // a bank color local to node 0
//	t0.SetLLCColor(0)
//	va, _ := t0.Malloc(4096)
//	sys.Run([]tintmalloc.Phase{tintmalloc.Parallel("touch", []tintmalloc.Work{
//		func(yield func(tintmalloc.Op) bool) {
//			yield(tintmalloc.Op{VA: va, Write: true})
//		},
//	})})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's figures.
package tintmalloc

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/pci"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// Re-exported core types. The aliases make the whole simulation
// drivable from this single import.
type (
	// CoreID identifies a hardware core of the simulated machine.
	CoreID = topology.CoreID
	// NodeID identifies a memory node (controller).
	NodeID = topology.NodeID
	// Time is an instant in simulated core cycles.
	Time = clock.Time
	// Dur is a span of simulated core cycles.
	Dur = clock.Dur
	// Op is one step of a simulated thread body: compute cycles and
	// at most one memory access (see engine.Op for heap-slot ops).
	Op = engine.Op
	// Work is a thread body yielding Ops in program order. The engine
	// pulls a body's ops in blocks, so a body runs ahead of simulated
	// time: it may touch shared state (Thread.Malloc and Free, a
	// shared cursor) only before its first yield or right after
	// yielding Sync(), both of which run at the thread's own turn.
	Work = engine.Work
	// Phase is a serial or parallel program section.
	Phase = engine.Phase
	// Result aggregates a program run (runtime, per-thread runtime,
	// barrier idle times).
	Result = engine.Result
	// Policy selects one of the paper's coloring schemes.
	Policy = policy.Policy
	// Assignment is the color set planned for one thread.
	Assignment = policy.Assignment
	// WorkloadParams tunes a built-in paper workload.
	WorkloadParams = workload.Params
	// Addr is a physical byte address.
	Addr = phys.Addr
	// Frame is a physical page-frame number.
	Frame = phys.Frame
)

// The paper's coloring policies.
const (
	PolicyBuddy      = policy.Buddy
	PolicyLLC        = policy.LLCOnly
	PolicyMEM        = policy.MEMOnly
	PolicyMEMLLC     = policy.MEMLLC
	PolicyMEMLLCPart = policy.MEMLLCPart
	PolicyLLCMEMPart = policy.LLCMEMPart
	PolicyBPM        = policy.BPM
)

// Serial builds a phase in which only the master thread runs.
func Serial(name string, n int, master Work) Phase { return engine.Serial(name, n, master) }

// Parallel builds a phase from one body per thread.
func Parallel(name string, bodies []Work) Phase { return engine.Parallel(name, bodies) }

// NoWaitParallel builds a barrier-less parallel phase (OpenMP
// `for nowait`, as in the paper's Algorithm 3).
func NoWaitParallel(name string, bodies []Work) Phase { return engine.NoWaitParallel(name, bodies) }

// Sync returns the op that hands a body its thread's turn: the body's
// code after it runs when the thread's next op does, in simulated-time
// order with the other threads. It is not an op itself; it takes no
// time and counts in no result.
func Sync() Op { return engine.Sync() }

// IterBody emits the ops of one loop iteration (see StaticFor).
type IterBody = engine.IterBody

// StaticFor partitions a loop statically across threads, like OpenMP
// schedule(static).
func StaticFor(n, nThreads int, body IterBody) []Work {
	return engine.StaticFor(n, nThreads, body)
}

// DynamicFor hands out loop chunks from a shared work queue, like
// OpenMP schedule(dynamic, chunk). Each chunk is claimed after a Sync,
// so the thread that is earliest in simulated time claims the next
// one.
func DynamicFor(n, chunk, nThreads int, body IterBody) []Work {
	return engine.DynamicFor(n, chunk, nThreads, body)
}

// TraceEvent describes one executed memory access.
type TraceEvent = engine.TraceEvent

// Tracer receives every executed access of a traced run.
type Tracer = engine.Tracer

// Config parameterizes NewSystem. The zero value builds the paper's
// platform: a dual-socket AMD Opteron 6128 (2 sockets x 2 nodes x 4
// cores), 2 GiB of DRAM, separable color bit mapping, pristine
// (un-aged) buddy zones and perfectly local default allocation.
type Config struct {
	// MemBytes is the installed physical memory (default 2 GiB).
	MemBytes uint64
	// Overlapped selects the paper-faithful Opteron mapping whose
	// bank bits overlap the LLC color bits; only a subset of
	// (bank, LLC) color combinations exists under it.
	Overlapped bool
	// AgedZones ages the buddy zones at boot (page-granular
	// fragmentation with a resident holdout) and gives the default
	// allocator the imperfect NUMA locality of a busy system —
	// the evaluation-machine conditions of the paper. Off by
	// default for a pristine, fully deterministic lab machine.
	AgedZones bool
	// Seed drives zone aging (ignored unless AgedZones).
	Seed int64
	// Sockets/NodesPerSocket/CoresPerNode override the machine
	// shape (all three must be set together; zero keeps the
	// Opteron 6128 preset of 2 sockets x 2 nodes x 4 cores).
	Sockets        int
	NodesPerSocket int
	CoresPerNode   int
}

// System is one simulated machine: topology, kernel, memory
// hierarchy and the process whose threads the caller creates.
type System struct {
	topo    *topology.Topology
	mapping *phys.Mapping
	kern    *kernel.Kernel
	msys    *mem.System
	proc    *kernel.Process
	threads []engine.Thread
	eng     *engine.Engine
	tracer  engine.Tracer
}

// SetTracer installs an access tracer delivered every executed memory
// access in virtual-time order (nil removes it). May be called before
// or after the first Run.
func (s *System) SetTracer(t Tracer) {
	s.tracer = t
	if s.eng != nil {
		s.eng.SetTracer(t)
	}
}

// NewSystem boots a machine. The address mapping is programmed into
// simulated PCI configuration registers by the BIOS and decoded back
// at late boot, exactly as TintMalloc discovers it on real hardware.
func NewSystem(cfg Config) (*System, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 2 << 30
	}
	topo := topology.Opteron6128()
	if cfg.Sockets != 0 || cfg.NodesPerSocket != 0 || cfg.CoresPerNode != 0 {
		var err error
		topo, err = topology.New(topology.Config{
			Sockets:         cfg.Sockets,
			NodesPerSocket:  cfg.NodesPerSocket,
			CoresPerNode:    cfg.CoresPerNode,
			IntraNodeHops:   1,
			IntraSocketHops: 2,
			InterSocketHops: 3,
		})
		if err != nil {
			return nil, err
		}
	}
	build := phys.DefaultSeparable
	if cfg.Overlapped {
		build = phys.OpteronOverlapped
	}
	m, err := build(cfg.MemBytes, topo.Nodes())
	if err != nil {
		return nil, err
	}
	space, err := pci.Bios(m)
	if err != nil {
		return nil, err
	}
	decoded, err := pci.DecodeMapping(space, topo.Nodes())
	if err != nil {
		return nil, err
	}
	kcfg := kernel.DefaultConfig()
	if cfg.AgedZones {
		kcfg.ChurnSeed = cfg.Seed
		if kcfg.ChurnSeed == 0 {
			kcfg.ChurnSeed = 1
		}
		kcfg.HoldoutFrac = 0.05
		kcfg.BuddyRemoteFrac = 0.12
	}
	kern, err := kernel.New(topo, decoded, kcfg)
	if err != nil {
		return nil, err
	}
	msys, err := mem.New(topo, decoded, mem.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &System{
		topo:    topo,
		mapping: decoded,
		kern:    kern,
		msys:    msys,
		proc:    kern.NewProcess(),
	}, nil
}

// Topology describes the machine's sockets, nodes and cores.
func (s *System) Topology() *topology.Topology { return s.topo }

// Mapping exposes the physical address translation (colors per
// address, node ranges, color counts).
func (s *System) Mapping() *phys.Mapping { return s.mapping }

// Kernel exposes the simulated OS kernel (stats, colored free lists).
func (s *System) Kernel() *kernel.Kernel { return s.kern }

// Mem exposes the memory hierarchy (cache/DRAM/interconnect stats).
func (s *System) Mem() *mem.System { return s.msys }

// Thread is one simulated application thread: a kernel task pinned to
// a core plus its user-level heap arena.
type Thread struct {
	sys   *System
	index int
	task  *kernel.Task
	heap  *heap.Heap
}

// AddThread creates a thread pinned to the given core. All threads
// share one address space (one process), as in the paper's OpenMP
// programs. Threads must be created before the first Run.
func (s *System) AddThread(core CoreID) (*Thread, error) {
	if s.eng != nil {
		return nil, fmt.Errorf("tintmalloc: AddThread after Run")
	}
	task, err := s.proc.NewTask(core)
	if err != nil {
		return nil, err
	}
	th := &Thread{sys: s, index: len(s.threads), task: task, heap: heap.New(task)}
	s.threads = append(s.threads, engine.Thread{Task: task, Heap: th.heap})
	return th, nil
}

// Index returns the thread's position (0 = master).
func (t *Thread) Index() int { return t.index }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() CoreID { return t.task.Core() }

// Task exposes the underlying kernel task.
func (t *Thread) Task() *kernel.Task { return t.task }

// Heap exposes the thread's arena.
func (t *Thread) Heap() *heap.Heap { return t.heap }

// SetMemColor adds a memory (controller/bank) color to the thread —
// the paper's one-line opt-in, issued through the real mmap protocol.
func (t *Thread) SetMemColor(color int) error {
	_, err := t.task.Mmap(uint64(color)|kernel.SetMemColor, 0, kernel.ColorAlloc)
	return err
}

// SetLLCColor adds an LLC color to the thread.
func (t *Thread) SetLLCColor(color int) error {
	_, err := t.task.Mmap(uint64(color)|kernel.SetLLCColor, 0, kernel.ColorAlloc)
	return err
}

// ClearMemColor removes a memory color.
func (t *Thread) ClearMemColor(color int) error {
	_, err := t.task.Mmap(uint64(color)|kernel.ClearMemColor, 0, kernel.ColorAlloc)
	return err
}

// ClearLLCColor removes an LLC color.
func (t *Thread) ClearLLCColor(color int) error {
	_, err := t.task.Mmap(uint64(color)|kernel.ClearLLCColor, 0, kernel.ColorAlloc)
	return err
}

// Malloc allocates size bytes on the thread's heap and returns the
// virtual address. Pages are faulted in — and colored — on first
// touch.
func (t *Thread) Malloc(size uint64) (uint64, error) { return t.heap.Malloc(size) }

// Calloc allocates n*size zeroed bytes.
func (t *Thread) Calloc(n, size uint64) (uint64, error) { return t.heap.Calloc(n, size) }

// Realloc resizes a heap block.
func (t *Thread) Realloc(va, size uint64) (uint64, error) { return t.heap.Realloc(va, size) }

// Free releases a heap block.
func (t *Thread) Free(va uint64) error { return t.heap.Free(va) }

// Mmap reserves an anonymous page-aligned region (for large arrays).
func (t *Thread) Mmap(length uint64) (uint64, error) { return t.task.Mmap(0, length, 0) }

// Munmap releases a region previously returned by Mmap.
func (t *Thread) Munmap(va, length uint64) error { return t.task.Munmap(va, length) }

// FrameOf returns the physical frame backing va, if resident.
func (t *Thread) FrameOf(va uint64) (Frame, bool) { return t.task.FrameOfVA(va) }

// MigrateStats reports what a Migrate call did.
type MigrateStats = kernel.MigrateStats

// Migrate recolors the already-resident pages of [va, va+length)
// onto the thread's current colors — the profile-then-recolor
// extension (data first-touched before colors were selected stays
// misplaced under plain TintMalloc). Charge the returned Cost as
// Compute time if calling from inside a running phase.
func (t *Thread) Migrate(va, length uint64) (MigrateStats, error) {
	return t.task.Migrate(va, length)
}

// PlanPolicy computes per-thread color assignments for the current
// thread team under one of the paper's schemes.
func (s *System) PlanPolicy(p Policy) ([]Assignment, error) {
	cores := make([]CoreID, len(s.threads))
	for i, th := range s.threads {
		cores[i] = th.Task.Core()
	}
	return policy.Plan(p, s.mapping, s.topo, cores)
}

// ApplyPolicy plans and installs a coloring scheme on every thread.
func (s *System) ApplyPolicy(p Policy) error {
	asn, err := s.PlanPolicy(p)
	if err != nil {
		return err
	}
	for i, th := range s.threads {
		if err := policy.Apply(th.Task, asn[i]); err != nil {
			return err
		}
	}
	return nil
}

// Run executes program phases on the thread team, returning runtime
// and idle-time measurements. Run may be called repeatedly; virtual
// time continues from the previous run.
func (s *System) Run(phases []Phase) (*Result, error) {
	if len(s.threads) == 0 {
		return nil, fmt.Errorf("tintmalloc: no threads; call AddThread first")
	}
	if s.eng == nil {
		e, err := engine.New(s.msys, s.threads)
		if err != nil {
			return nil, err
		}
		e.SetTracer(s.tracer)
		s.eng = e
	}
	return s.eng.Run(phases)
}

// BuildWorkload constructs one of the paper's workloads ("synthetic",
// "lbm", "art", "equake", "bodytrack", "freqmine", "blackscholes")
// for the current thread team.
func (s *System) BuildWorkload(name string, params WorkloadParams) ([]Phase, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if params.Scale == 0 {
		params.Scale = 1
	}
	return w.Build(s.threads, params)
}

// WorkloadNames lists the built-in workloads: the paper's seven plus
// the four shapes ported from golang.org/x/benchmarks.
func WorkloadNames() []string {
	var out []string
	for _, w := range workload.Registry() {
		out = append(out, w.Name)
	}
	return out
}
