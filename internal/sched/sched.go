// Package sched is the dispatch scheduler in front of the serving
// layer: it admits tasks onto simulated cores under FIFO,
// round-robin, or virtual-round-robin policies, assigns colors at
// dispatch time, and walks every task through the explicit
// new → ready → running → blocked → exit lifecycle.
//
// The dispatch loop is deliberately serial and deterministic: cores
// are simulated, ticks are logical, and at most one allocator
// operation is in flight at a time. Run against the in-process
// serve.Server, the resulting serve.Stats are a pure function of the
// (Config, []Spec) pair — which is what lets the wire-protocol
// differential test pin the daemon's counters byte-identical to the
// in-process reference (see internal/wire).
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Policy selects the dispatch discipline.
type Policy uint8

const (
	// FIFO runs each dispatched task to exit (non-preemptive).
	FIFO Policy = iota
	// RR preempts after Config.Quantum operations; preempted tasks
	// rejoin the tail of the ready queue with a fresh quantum.
	RR
	// VRR is virtual round-robin: a task that blocks mid-quantum
	// keeps its remaining quantum and, on wake, enters an auxiliary
	// queue that is dispatched ahead of the main ready queue.
	VRR
)

// Policies lists every dispatch policy, in definition order.
func Policies() []Policy { return []Policy{FIFO, RR, VRR} }

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case RR:
		return "rr"
	case VRR:
		return "vrr"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy maps a CLI/wire name back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want fifo, rr, or vrr)", s)
}

// State is a task's lifecycle state.
type State uint8

const (
	StateNew State = iota
	StateReady
	StateRunning
	StateBlocked
	StateExit
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateExit:
		return "exit"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// legalTransition encodes the 5-state machine: New→Ready (admission),
// Ready→Running (dispatch), Running→Ready (preemption),
// Running→Blocked (I/O or backpressure), Blocked→Ready (wake), and
// Running→Exit (completion or fatal error).
func legalTransition(from, to State) bool {
	switch from {
	case StateNew:
		return to == StateReady
	case StateReady:
		return to == StateRunning
	case StateRunning:
		return to == StateReady || to == StateBlocked || to == StateExit
	case StateBlocked:
		return to == StateReady
	}
	return false
}

// Spec describes one task submitted to the scheduler.
type Spec struct {
	// Arrival is the dispatch tick at which the task leaves New for
	// the ready queue. Tasks arriving on the same tick are admitted in
	// spec order.
	Arrival uint32
	// Ops is the number of churn operations the task performs before
	// draining its live set and exiting.
	Ops uint32
	// BlockEvery, when positive, blocks the task after every
	// BlockEvery completed churn operations — the scripted stand-in
	// for I/O waits, and the only way a deterministic serial loop
	// reaches Blocked (backpressure cannot fire with one op in
	// flight).
	BlockEvery uint32
	// BlockFor is how many ticks a scripted block lasts (minimum 1).
	BlockFor uint32
	// Seed seeds the task's churn mix; zero derives one from the task
	// index so distinct tasks still diverge.
	Seed int64
}

// Config tunes one scheduler run.
type Config struct {
	// Policy is the dispatch discipline (default FIFO).
	Policy Policy
	// Quantum is the operation budget of one RR/VRR slice
	// (default 32). FIFO ignores it.
	Quantum int
	// Cores is the number of simulated cores dispatching in parallel
	// (default 1). Within a tick, cores dispatch in index order, so
	// multi-core runs stay deterministic.
	Cores int
	// MaxTicks aborts a run that fails to converge (default 1<<20).
	MaxTicks uint64
}

func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = 32
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 1 << 20
	}
	return c
}

// Allocator is the per-task allocation surface a Backend opens at
// dispatch. serve.Client (wrapped) and wire.Client both satisfy it.
type Allocator interface {
	Alloc() (phys.Frame, error)
	Realloc(old phys.Frame) (phys.Frame, error)
	Free(f phys.Frame) error
	Close() error
}

// Backend admits a task onto a simulated core: it creates the task's
// allocation principal, with colors assigned at dispatch time.
type Backend interface {
	Open(task, core int) (Allocator, error)
}

// TaskResult is one task's final accounting.
type TaskResult struct {
	State       State
	Completed   uint64 // churn + drain operations completed
	Dispatches  uint64 // Ready→Running transitions
	Preemptions uint64 // Running→Ready transitions (quantum expiry)
	Blocks      uint64 // Running→Blocked transitions
	// Err carries a fatal per-task error as text (stable across the
	// wire), empty on clean exit.
	Err string
}

// Result is one scheduler run's outcome. For a fixed (Config, []Spec)
// pair every field is deterministic.
type Result struct {
	Ticks       uint64
	Dispatches  uint64
	Preemptions uint64
	Blocks      uint64
	Ops         uint64 // sum of per-task Completed
	IdleCores   uint64 // core-ticks with nothing runnable
	Tasks       []TaskResult
}

// sliceOutcome says how one dispatch slice ended.
type sliceOutcome uint8

const (
	sliceExited sliceOutcome = iota
	sliceBlocked
	slicePreempted
)

type task struct {
	spec  Spec
	state State
	alloc Allocator
	rng   *rand.Rand
	owned []phys.Frame

	churned     uint64 // budgeted churn ops completed (block points key off this)
	completed   uint64 // churned + drain frees
	dispatches  uint64
	preemptions uint64
	blocks      uint64
	err         error

	wakeTick    uint64 // tick at which a Blocked task re-enters Ready
	quantumLeft int    // VRR: unused quantum carried across a block
	nextBlock   uint64 // churn count at which the next scripted block fires
}

// Run executes the task set to completion under cfg and returns the
// deterministic accounting. Backend errors and allocator errors are
// fatal to the task (recorded in its TaskResult), not to the run;
// only configuration errors and a MaxTicks overrun fail the run.
func Run(cfg Config, specs []Spec, be Backend) (*Result, error) {
	if be == nil {
		return nil, errors.New("sched: nil backend")
	}
	switch cfg.Policy {
	case FIFO, RR, VRR:
	default:
		return nil, fmt.Errorf("sched: unknown policy %d", cfg.Policy)
	}
	cfg = cfg.withDefaults()

	tasks := make([]*task, len(specs))
	for i, sp := range specs {
		seed := sp.Seed
		if seed == 0 {
			seed = int64(i) + 1
		}
		t := &task{spec: sp, state: StateNew, rng: rand.New(rand.NewSource(seed))}
		if sp.BlockEvery > 0 {
			t.nextBlock = uint64(sp.BlockEvery)
		}
		tasks[i] = t
	}

	r := &runState{cfg: cfg, tasks: tasks, be: be}
	res := &Result{Tasks: make([]TaskResult, len(specs))}
	remaining := len(tasks)
	for tick := uint64(0); remaining > 0; tick++ {
		if tick >= cfg.MaxTicks {
			return nil, fmt.Errorf("sched: %d tasks still live after %d ticks", remaining, tick)
		}
		res.Ticks = tick + 1
		r.wakeAndAdmit(tick)
		for core := 0; core < cfg.Cores && remaining > 0; core++ {
			ti := r.pick()
			if ti < 0 {
				res.IdleCores++
				continue
			}
			t := tasks[ti]
			r.transition(t, StateRunning)
			t.dispatches++
			if t.alloc == nil && t.err == nil {
				a, err := be.Open(ti, core)
				if err != nil {
					t.err = fmt.Errorf("open: %w", err)
				} else {
					t.alloc = a
				}
			}
			switch r.runSlice(t) {
			case sliceExited:
				r.transition(t, StateExit)
				remaining--
			case sliceBlocked:
				t.blocks++
				r.transition(t, StateBlocked)
				dur := uint64(t.spec.BlockFor)
				if dur == 0 {
					dur = 1
				}
				t.wakeTick = tick + dur
			case slicePreempted:
				t.preemptions++
				t.quantumLeft = 0
				r.transition(t, StateReady)
				r.ready = append(r.ready, ti)
			}
		}
	}

	for i, t := range tasks {
		tr := TaskResult{
			State:       t.state,
			Completed:   t.completed,
			Dispatches:  t.dispatches,
			Preemptions: t.preemptions,
			Blocks:      t.blocks,
		}
		if t.err != nil {
			tr.Err = t.err.Error()
		}
		res.Tasks[i] = tr
		res.Dispatches += t.dispatches
		res.Preemptions += t.preemptions
		res.Blocks += t.blocks
		res.Ops += t.completed
	}
	return res, nil
}

type runState struct {
	cfg   Config
	tasks []*task
	be    Backend
	ready []int // main ready queue (task indices)
	aux   []int // VRR auxiliary queue: woken tasks with quantum left
}

// transition moves a task between states, enforcing the 5-state
// machine. An illegal transition is a scheduler bug, not a workload
// condition, so it panics.
func (r *runState) transition(t *task, to State) {
	if !legalTransition(t.state, to) {
		panic(fmt.Sprintf("sched: illegal transition %v -> %v", t.state, to))
	}
	t.state = to
}

// wakeAndAdmit processes, in deterministic order, the tick's
// Blocked→Ready wakes (ascending task index) and then the tick's
// New→Ready arrivals (ascending task index).
func (r *runState) wakeAndAdmit(tick uint64) {
	for ti, t := range r.tasks {
		if t.state == StateBlocked && t.wakeTick <= tick {
			r.transition(t, StateReady)
			if r.cfg.Policy == VRR && t.quantumLeft > 0 {
				r.aux = append(r.aux, ti)
			} else {
				r.ready = append(r.ready, ti)
			}
		}
	}
	for ti, t := range r.tasks {
		if t.state == StateNew && uint64(t.spec.Arrival) <= tick {
			r.transition(t, StateReady)
			r.ready = append(r.ready, ti)
		}
	}
}

// pick pops the next task index to dispatch: the VRR auxiliary queue
// drains ahead of the main ready queue.
func (r *runState) pick() int {
	if len(r.aux) > 0 {
		ti := r.aux[0]
		r.aux = r.aux[1:]
		return ti
	}
	if len(r.ready) > 0 {
		ti := r.ready[0]
		r.ready = r.ready[1:]
		return ti
	}
	return -1
}

// runSlice runs one dispatch slice of t: churn operations until the
// quantum expires, a block point fires, or the task finishes. The
// drain-and-close epilogue is not preemptible — exiting tasks settle
// their frames within the slice, which is what keeps the server
// quiescent and auditable the moment Run returns.
func (r *runState) runSlice(t *task) sliceOutcome {
	if t.err != nil {
		return r.exitSlice(t)
	}
	budget := -1 // FIFO: unbounded slice
	switch r.cfg.Policy {
	case RR:
		budget = r.cfg.Quantum
	case VRR:
		if t.quantumLeft > 0 {
			budget = t.quantumLeft
			t.quantumLeft = 0
		} else {
			budget = r.cfg.Quantum
		}
	}
	used := 0
	for t.churned < uint64(t.spec.Ops) {
		if budget >= 0 && used >= budget {
			return slicePreempted
		}
		ok, blocked := t.step()
		if !ok {
			return r.exitSlice(t)
		}
		used++
		if blocked {
			if r.cfg.Policy == VRR && budget > used {
				t.quantumLeft = budget - used
			}
			return sliceBlocked
		}
	}
	return r.exitSlice(t)
}

// step performs one churn operation. It returns ok=false on a fatal
// task error and blocked=true when a scripted block point (or
// backpressure) follows the completed operation.
func (t *task) step() (ok, blocked bool) {
	var opErr error
	switch {
	case len(t.owned) > 0 && t.rng.Intn(10) < 3:
		j := t.rng.Intn(len(t.owned))
		opErr = t.alloc.Free(t.owned[j])
		if opErr == nil {
			t.owned[j] = t.owned[len(t.owned)-1]
			t.owned = t.owned[:len(t.owned)-1]
		}
	case len(t.owned) > 0 && t.rng.Intn(10) < 2:
		j := t.rng.Intn(len(t.owned))
		var f phys.Frame
		f, opErr = t.alloc.Realloc(t.owned[j])
		if opErr == nil {
			t.owned[j] = f
		}
	default:
		var f phys.Frame
		f, opErr = t.alloc.Alloc()
		if opErr == nil {
			t.owned = append(t.owned, f)
		}
	}
	switch {
	case errors.Is(opErr, serve.ErrBusy):
		// Backpressure: the operation did not happen. Model it as a
		// one-tick block (cannot fire in the serial in-process loop,
		// but a live daemon under concurrent load can report it).
		return true, true
	case errors.Is(opErr, serve.ErrNoMemory):
		// Machine-wide exhaustion: give a frame back, as the serve
		// churn driver does; a task with nothing to give dies.
		if len(t.owned) == 0 {
			t.err = opErr
			return false, false
		}
		if err := t.alloc.Free(t.owned[len(t.owned)-1]); err != nil {
			t.err = err
			return false, false
		}
		t.owned = t.owned[:len(t.owned)-1]
	case opErr != nil:
		t.err = opErr
		return false, false
	}
	t.churned++
	t.completed++
	if t.spec.BlockEvery > 0 && t.churned >= t.nextBlock && t.churned < uint64(t.spec.Ops) {
		t.nextBlock += uint64(t.spec.BlockEvery)
		return true, true
	}
	return true, false
}

// exitSlice drains the task's live set, closes its allocator, and
// reports the slice as exited. Drain and close failures land in the
// task's error unless a churn error is already recorded.
func (r *runState) exitSlice(t *task) sliceOutcome {
	if t.alloc != nil {
		for _, f := range t.owned {
			if err := t.alloc.Free(f); err != nil {
				if t.err == nil {
					t.err = fmt.Errorf("drain: %w", err)
				}
				break
			}
			t.completed++
		}
		t.owned = nil
		if err := t.alloc.Close(); err != nil && t.err == nil {
			t.err = fmt.Errorf("close: %w", err)
		}
	}
	return sliceExited
}

// AssignFunc decides, at dispatch time, the core pin and color claim
// of a task admitted onto a simulated core.
type AssignFunc func(task, core int) (topology.CoreID, []int, []int)

// PlanAssign builds the standard dispatch-time color assignment: a
// MEM+LLC plan over every core of the machine, handed out by task
// index, with every uncoloredEvery-th task left uncolored so scenarios
// exercise the default path too (0 colors everyone). Simulated cores
// pin round-robin across NUMA nodes.
func PlanAssign(m *phys.Mapping, topo *topology.Topology, uncoloredEvery int) (AssignFunc, error) {
	cores := make([]topology.CoreID, topo.Cores())
	for i := range cores {
		cores[i] = topology.CoreID(i)
	}
	asn, err := policy.Plan(policy.MEMLLC, m, topo, cores)
	if err != nil {
		return nil, err
	}
	nodes := topo.Nodes()
	return func(task, core int) (topology.CoreID, []int, []int) {
		node := topology.NodeID(core % nodes)
		nodeCores := topo.CoresOfNode(node)
		cid := nodeCores[(core/nodes)%len(nodeCores)]
		if uncoloredEvery > 0 && (task+1)%uncoloredEvery == 0 {
			return cid, nil, nil
		}
		a := asn[task%len(asn)]
		return cid, a.BankColors, a.LLCColors
	}, nil
}

// serveBackend admits tasks as in-process serve.Clients — the
// reference the wire daemon is differentially tested against.
type serveBackend struct {
	s      *serve.Server
	assign AssignFunc
}

// NewServeBackend returns a Backend over the in-process server.
func NewServeBackend(s *serve.Server, assign AssignFunc) Backend {
	return &serveBackend{s: s, assign: assign}
}

func (b *serveBackend) Open(task, core int) (Allocator, error) {
	cid, bank, llc := b.assign(task, core)
	c, err := b.s.NewClient(cid)
	if err != nil {
		return nil, err
	}
	if len(bank) > 0 || len(llc) > 0 {
		if err := c.SetColors(bank, llc); err != nil {
			return nil, err
		}
	}
	return serveAlloc{c}, nil
}

// serveAlloc's Close retires the client once the task has drained,
// releasing its color claim as an exiting task does in the kernel.
type serveAlloc struct{ c *serve.Client }

func (a serveAlloc) Alloc() (phys.Frame, error)                 { return a.c.Alloc() }
func (a serveAlloc) Realloc(old phys.Frame) (phys.Frame, error) { return a.c.Realloc(old) }
func (a serveAlloc) Free(f phys.Frame) error                    { return a.c.Free(f) }
func (a serveAlloc) Close() error                               { a.c.Close(); return nil }
