package sched

import (
	"errors"
	"reflect"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 64 << 20

// fakeBackend hands out frames from a counter and records the
// (task, op) interleaving so tests can assert dispatch order.
type fakeBackend struct {
	next   phys.Frame
	opens  []int // task ids in Open order
	trace  []int // task id per completed allocator call
	closed int
}

type fakeAlloc struct {
	be   *fakeBackend
	task int
}

func (b *fakeBackend) Open(task, core int) (Allocator, error) {
	b.opens = append(b.opens, task)
	return &fakeAlloc{be: b, task: task}, nil
}

func (a *fakeAlloc) Alloc() (phys.Frame, error) {
	a.be.trace = append(a.be.trace, a.task)
	a.be.next++
	return a.be.next, nil
}

func (a *fakeAlloc) Realloc(old phys.Frame) (phys.Frame, error) {
	a.be.trace = append(a.be.trace, a.task)
	a.be.next++
	return a.be.next, nil
}

func (a *fakeAlloc) Free(f phys.Frame) error {
	a.be.trace = append(a.be.trace, a.task)
	return nil
}

func (a *fakeAlloc) Close() error {
	a.be.closed++
	return nil
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lottery"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func TestStateMachine(t *testing.T) {
	legal := [][2]State{
		{StateNew, StateReady},
		{StateReady, StateRunning},
		{StateRunning, StateReady},
		{StateRunning, StateBlocked},
		{StateRunning, StateExit},
		{StateBlocked, StateReady},
	}
	for _, tr := range legal {
		if !legalTransition(tr[0], tr[1]) {
			t.Errorf("transition %v -> %v should be legal", tr[0], tr[1])
		}
	}
	for _, tr := range [][2]State{
		{StateNew, StateRunning},
		{StateReady, StateBlocked},
		{StateBlocked, StateRunning},
		{StateExit, StateReady},
		{StateRunning, StateRunning},
	} {
		if legalTransition(tr[0], tr[1]) {
			t.Errorf("transition %v -> %v should be illegal", tr[0], tr[1])
		}
	}
}

func TestFIFORunsEachTaskToExit(t *testing.T) {
	be := &fakeBackend{}
	specs := []Spec{{Ops: 20}, {Ops: 20}, {Ops: 20}}
	res, err := Run(Config{Policy: FIFO}, specs, be)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tasks {
		if tr.State != StateExit || tr.Err != "" {
			t.Fatalf("task %d: %+v", i, tr)
		}
		if tr.Dispatches != 1 || tr.Preemptions != 0 {
			t.Fatalf("task %d: FIFO should dispatch exactly once: %+v", i, tr)
		}
	}
	// Non-preemptive: every op of task i precedes every op of task i+1.
	last := -1
	for _, task := range be.trace {
		if task < last {
			t.Fatalf("FIFO interleaved tasks: trace %v", be.trace)
		}
		last = task
	}
	if be.closed != len(specs) {
		t.Fatalf("closed %d allocators, want %d", be.closed, len(specs))
	}
}

func TestRRPreemptsOnQuantum(t *testing.T) {
	be := &fakeBackend{}
	res, err := Run(Config{Policy: RR, Quantum: 10}, []Spec{{Ops: 100}}, be)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	if tr.State != StateExit || tr.Preemptions != 9 || tr.Dispatches != 10 {
		t.Fatalf("RR 100 ops / quantum 10: %+v", tr)
	}
	if tr.Completed < 100 {
		t.Fatalf("completed %d < 100 budgeted ops (drain frees only add)", tr.Completed)
	}
}

func TestScriptedBlocksAndVRRCarry(t *testing.T) {
	be := &fakeBackend{}
	// Blocks at churned 5 and 10 (12 is the exit, not a block point).
	res, err := Run(Config{Policy: VRR, Quantum: 8}, []Spec{{Ops: 12, BlockEvery: 5, BlockFor: 2}}, be)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	if tr.State != StateExit || tr.Blocks != 2 {
		t.Fatalf("VRR blocked task: %+v", tr)
	}
	// Slice 1: ops 1-5, block (3 quantum left). Slice 2 (aux): ops
	// 6-8, leftover quantum expires — preempted. Slice 3: ops 9-10,
	// block (6 left). Slice 4 (aux): ops 11-12, exit.
	if tr.Dispatches != 4 || tr.Preemptions != 1 {
		t.Fatalf("want 4 dispatches / 1 preemption, got %+v", tr)
	}
	if res.Ticks < 5 {
		t.Fatalf("two 2-tick blocks cannot finish in %d ticks", res.Ticks)
	}
}

func TestVRRAuxQueueBeatsReadyQueue(t *testing.T) {
	be := &fakeBackend{}
	// Task 0 blocks mid-quantum and must resume (aux queue, leftover
	// quantum) ahead of task 1, which was preempted to the ready tail.
	specs := []Spec{
		{Ops: 10, BlockEvery: 3, BlockFor: 1},
		{Ops: 40},
	}
	res, err := Run(Config{Policy: VRR, Quantum: 8}, specs, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[0].State != StateExit || res.Tasks[1].State != StateExit {
		t.Fatalf("tasks did not exit: %+v", res.Tasks)
	}
	if res.Tasks[0].Blocks == 0 {
		t.Fatalf("task 0 never blocked: %+v", res.Tasks[0])
	}
	// Task 0's post-wake ops must appear before task 1 has finished:
	// find the first op of task 0 after task 1 started and assert task
	// 1 still has ops after it (i.e. 0 resumed ahead of 1's remainder).
	first1 := -1
	resume0 := -1
	for i, task := range be.trace {
		if task == 1 && first1 < 0 {
			first1 = i
		}
		if task == 0 && first1 >= 0 && resume0 < 0 {
			resume0 = i
		}
	}
	if first1 < 0 || resume0 < 0 {
		t.Fatalf("expected interleaving, trace %v", be.trace)
	}
	rest1 := false
	for _, task := range be.trace[resume0:] {
		if task == 1 {
			rest1 = true
			break
		}
	}
	if !rest1 {
		t.Fatalf("woken task 0 did not preempt task 1's remainder: trace %v", be.trace)
	}

	// A block that leaves exactly one op of quantum. Tick 0: task 0
	// runs ops 1-7 and blocks. Tick 1: it wakes into the auxiliary
	// queue, runs op 8 ahead of task 1, and is preempted right after.
	be = &fakeBackend{}
	specs = []Spec{
		{Ops: 10, BlockEvery: 7, BlockFor: 1},
		{Ops: 40},
	}
	res, err = Run(Config{Policy: VRR, Quantum: 8}, specs, be)
	if err != nil {
		t.Fatal(err)
	}
	if len(be.trace) < 9 || be.trace[7] != 0 || be.trace[8] != 1 {
		t.Fatalf("leftover quantum of 1: trace %v, want task 0 for exactly one op after its block, then task 1", be.trace)
	}
	if tr := res.Tasks[0]; tr.Blocks != 1 || tr.Preemptions != 1 || tr.Dispatches != 3 {
		t.Fatalf("leftover quantum of 1: task 0 %+v, want 1 block, 1 preemption, 3 dispatches", tr)
	}
}

func TestArrivalsAdmitInTickOrder(t *testing.T) {
	be := &fakeBackend{}
	specs := []Spec{
		{Arrival: 5, Ops: 4},
		{Arrival: 0, Ops: 4},
	}
	res, err := Run(Config{Policy: FIFO}, specs, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[0].State != StateExit || res.Tasks[1].State != StateExit {
		t.Fatalf("tasks did not exit: %+v", res.Tasks)
	}
	if len(be.opens) != 2 || be.opens[0] != 1 || be.opens[1] != 0 {
		t.Fatalf("admission order %v, want [1 0] (task 1 arrives first)", be.opens)
	}
}

type failBackend struct{}

func (failBackend) Open(task, core int) (Allocator, error) {
	return nil, errors.New("boom")
}

func TestBackendOpenFailureIsPerTask(t *testing.T) {
	res, err := Run(Config{Policy: FIFO}, []Spec{{Ops: 5}}, failBackend{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	if tr.State != StateExit || tr.Err == "" || tr.Completed != 0 {
		t.Fatalf("open failure should exit the task with its error: %+v", tr)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Policy: Policy(9)}, nil, &fakeBackend{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Run(Config{}, nil, nil); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := Run(Config{MaxTicks: 3}, []Spec{{Arrival: 100, Ops: 1}}, &fakeBackend{}); err == nil {
		t.Fatal("MaxTicks overrun not reported")
	}
}

func newTestServer(t *testing.T) (*serve.Server, AssignFunc) {
	t.Helper()
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(topo, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	assign, err := PlanAssign(m, topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s, assign
}

// TestServeBackendDeterministic pins the core contract the wire
// differential builds on: the same (Config, []Spec) against a fresh
// server yields identical Results and identical serve.Stats.
func TestServeBackendDeterministic(t *testing.T) {
	specs := []Spec{
		{Ops: 300},
		{Ops: 200, BlockEvery: 40, BlockFor: 2},
		{Arrival: 3, Ops: 250},
		{Ops: 150, BlockEvery: 25, BlockFor: 1}, // task 3: uncolored (stride 4)
	}
	for _, pol := range Policies() {
		var prevRes *Result
		var prevStats serve.Stats
		for round := 0; round < 2; round++ {
			s, assign := newTestServer(t)
			res, err := Run(Config{Policy: pol, Quantum: 16, Cores: 2}, specs, NewServeBackend(s, assign))
			if err != nil {
				t.Fatalf("%v round %d: %v", pol, round, err)
			}
			for i, tr := range res.Tasks {
				if tr.State != StateExit || tr.Err != "" {
					t.Fatalf("%v round %d task %d: %+v", pol, round, i, tr)
				}
			}
			s.Close()
			st := s.Stats()
			if round == 0 {
				prevRes, prevStats = res, st
				continue
			}
			if !reflect.DeepEqual(prevRes, res) {
				t.Fatalf("%v: scheduler result varies across identical runs:\n%+v\n%+v", pol, prevRes, res)
			}
			if prevStats != st {
				t.Fatalf("%v: serve.Stats vary across identical runs:\n%+v\n%+v", pol, prevStats, st)
			}
		}
	}
}

func TestPlanAssignStride(t *testing.T) {
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	assign, err := PlanAssign(m, topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 8; task++ {
		core, bank, llc := assign(task, task%2)
		if !topo.ValidCore(core) {
			t.Fatalf("task %d pinned to invalid core %d", task, core)
		}
		uncolored := (task+1)%4 == 0
		if uncolored && (len(bank) != 0 || len(llc) != 0) {
			t.Fatalf("task %d should be uncolored, got bank=%v llc=%v", task, bank, llc)
		}
		if !uncolored && len(bank) == 0 {
			t.Fatalf("task %d should hold bank colors", task)
		}
	}
}
