package engine

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// newComputeEngine builds an engine with n threads pinned to cores
// 0..n-1, for tests that never touch memory.
func newComputeEngine(t *testing.T, n int) *Engine {
	t.Helper()
	cores := make([]topology.CoreID, n)
	for i := range cores {
		cores[i] = topology.CoreID(i)
	}
	return newRig(t, cores).e
}

// The queue must hand back runners in exactly (time, id) order, the
// order the old linear scan selected.
func TestEventQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rs []*runnerState
	for i := 0; i < 200; i++ {
		// Many deliberate time collisions so tie-breaking by id is
		// actually exercised.
		rs = append(rs, &runnerState{id: i, time: clock.Time(rng.Intn(20))})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	q, err := newEventQueue(rs)
	if err != nil {
		t.Fatal(err)
	}
	var prev *runnerState
	for q.Len() > 0 {
		r := q.PopMin()
		if prev != nil {
			if r.time < prev.time || (r.time == prev.time && r.id < prev.id) {
				t.Fatalf("pop order violated (time,id): got (%d,%d) after (%d,%d)",
					r.time, r.id, prev.time, prev.id)
			}
		}
		prev = r
	}
}

// FixMin after advancing the minimum's clock must restore the exact
// (time, id) order a full re-scan would compute.
func TestEventQueueFixMin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rs []*runnerState
	for i := 0; i < 64; i++ {
		rs = append(rs, &runnerState{id: i, time: clock.Time(rng.Intn(50))})
	}
	q, err := newEventQueue(rs)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5000; step++ {
		// Reference selection: linear scan over every runner.
		want := rs[0]
		for _, r := range rs[1:] {
			if r.time < want.time || (r.time == want.time && r.id < want.id) {
				want = r
			}
		}
		got := q.Min()
		if got != want {
			t.Fatalf("step %d: queue min (%d,%d) != scan min (%d,%d)",
				step, got.time, got.id, want.time, want.id)
		}
		got.time += clock.Dur(rng.Intn(7)) // 0 advances exercise stable ties
		if err := q.FixMin(); err != nil {
			t.Fatal(err)
		}
	}
}

// A virtual time the packed key cannot hold fails the run and names
// the thread. With thread ids 0 and 1 the key keeps one id bit, so
// the limit is 2^63; with ids up to 3 it keeps two, so 2^62.
func TestEventQueueLimitIsRunError(t *testing.T) {
	compute := func(ds ...clock.Dur) Work {
		return func(yield func(Op) bool) {
			for _, d := range ds {
				if !yield(Op{Compute: d}) {
					return
				}
			}
		}
	}

	// A Compute op that crosses the limit mid-phase.
	e := newComputeEngine(t, 2)
	_, err := e.Run([]Phase{Parallel("cross", []Work{compute(1, 2), compute(3, 1<<63, 4)})})
	if err == nil || !strings.Contains(err.Error(), "thread 1: virtual time") {
		t.Fatalf("crossing op: err = %v, want the event-queue limit naming thread 1", err)
	}

	// A phase that starts past its own limit: the first phase runs
	// threads 0 and 1 to 2^62, and the second adds thread 3, which
	// halves the time field.
	e = newComputeEngine(t, 4)
	_, err = e.Run([]Phase{
		Parallel("wide", []Work{compute(1 << 62), compute(1), nil, nil}),
		Parallel("narrow", []Work{compute(1), nil, nil, compute(1)}),
	})
	if err == nil || !strings.Contains(err.Error(), `phase "narrow": thread 0: virtual time`) {
		t.Fatalf("late start: err = %v, want the event-queue limit naming thread 0", err)
	}
}

// The event-queue scheduler must execute a phase's ops in the same
// global order as the reference earliest-thread linear scan,
// including ties resolved by thread id.
func TestSchedulerMatchesLinearScanReference(t *testing.T) {
	const threads = 9
	rng := rand.New(rand.NewSource(3))
	// Per-thread op lists with frequent duration collisions.
	durs := make([][]clock.Dur, threads)
	for i := range durs {
		n := 30 + rng.Intn(40)
		for j := 0; j < n; j++ {
			durs[i] = append(durs[i], clock.Dur(rng.Intn(4)))
		}
	}

	// Reference: simulate the old linear scan over (time, id).
	type ref struct {
		id   int
		time clock.Time
		next int
	}
	var wantOrder [][2]int
	var refs []*ref
	for i := range durs {
		refs = append(refs, &ref{id: i})
	}
	for len(refs) > 0 {
		sel := 0
		for i := 1; i < len(refs); i++ {
			if refs[i].time < refs[sel].time ||
				(refs[i].time == refs[sel].time && refs[i].id < refs[sel].id) {
				sel = i
			}
		}
		r := refs[sel]
		if r.next >= len(durs[r.id]) {
			refs = append(refs[:sel], refs[sel+1:]...)
			continue
		}
		wantOrder = append(wantOrder, [2]int{r.id, r.next})
		r.time += durs[r.id][r.next]
		r.next++
	}

	// Engine run: record the order ops execute via the bodies. The
	// record is shared state, so each one follows a Sync and runs at
	// the thread's turn, right before its op.
	var gotOrder [][2]int
	bodies := make([]Work, threads)
	for i := range bodies {
		bodies[i] = func(yield func(Op) bool) {
			for j, d := range durs[i] {
				if !yield(Sync()) {
					return
				}
				gotOrder = append(gotOrder, [2]int{i, j})
				if !yield(Op{Compute: d}) {
					return
				}
			}
		}
	}
	e := newComputeEngine(t, threads)
	res, err := e.Run([]Phase{Parallel("p", bodies)})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("executed %d ops, reference executed %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("step %d: engine ran thread %d op %d, reference thread %d op %d",
				i, gotOrder[i][0], gotOrder[i][1], wantOrder[i][0], wantOrder[i][1])
		}
	}
	if res.Ops != uint64(len(wantOrder)) {
		t.Errorf("Result.Ops = %d, want %d", res.Ops, len(wantOrder))
	}
}

// A phase whose bodies are all nil queues no runners. It executes no
// ops and charges no idle, not even to a thread that waits at its
// barrier, and it ends at the latest release time: here the slower
// thread's end of the NoWait phase before it.
func TestEmptyPhase(t *testing.T) {
	e := newComputeEngine(t, 2)
	res, err := e.Run([]Phase{
		NoWaitParallel("a", []Work{computeWork(1, 100), computeWork(1, 300)}),
		Parallel("empty", []Work{nil, nil}),
		Parallel("b", []Work{computeWork(1, 10), computeWork(1, 10)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Phases[1]
	if pr.Start != 300 || pr.End != 300 || pr.Parallel {
		t.Errorf("empty phase: Start %d End %d Parallel %v, want 300 300 false", pr.Start, pr.End, pr.Parallel)
	}
	if pr.ThreadEnd[0] != 100 || pr.ThreadEnd[1] != 300 {
		t.Errorf("empty phase ThreadEnd = %v, want the release times [100 300]", pr.ThreadEnd)
	}
	if res.Ops != 4 || res.TotalIdle != 0 || res.Runtime != 310 {
		t.Errorf("Ops %d TotalIdle %d Runtime %d, want 4 0 310", res.Ops, res.TotalIdle, res.Runtime)
	}

	// A run of nothing but an empty phase.
	e = newComputeEngine(t, 2)
	res, err = e.Run([]Phase{Parallel("empty", []Work{nil, nil})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 0 || res.TotalIdle != 0 || res.Runtime != 0 {
		t.Errorf("Ops %d TotalIdle %d Runtime %d, want 0 0 0", res.Ops, res.TotalIdle, res.Runtime)
	}
}

// Regression for the op-budget semantics: the budget is per thread,
// so a many-thread phase whose threads each stay under it must not
// trip the guard even when the phase total far exceeds it, while a
// single runaway thread must.
func TestOpBudgetIsPerThread(t *testing.T) {
	const threads = 8
	mkBodies := func(opsPerThread int) []Work {
		bodies := make([]Work, threads)
		for i := range bodies {
			bodies[i] = func(yield func(Op) bool) {
				for j := 0; j < opsPerThread; j++ {
					if !yield(Op{Compute: 1}) {
						return
					}
				}
			}
		}
		return bodies
	}

	e := newComputeEngine(t, threads)
	e.SetOpBudget(100)
	// 8 x 90 = 720 total ops, but no thread exceeds 100.
	if _, err := e.Run([]Phase{Parallel("ok", mkBodies(90))}); err != nil {
		t.Fatalf("per-thread-conforming phase tripped the budget: %v", err)
	}

	e = newComputeEngine(t, threads)
	e.SetOpBudget(100)
	if _, err := e.Run([]Phase{Parallel("runaway", mkBodies(150))}); err == nil {
		t.Fatal("runaway thread did not trip the per-thread op budget")
	}

	// The budget resets between phases: two conforming phases in one
	// run must pass even though their combined per-thread ops exceed
	// the budget.
	e = newComputeEngine(t, threads)
	e.SetOpBudget(100)
	if _, err := e.Run([]Phase{
		Parallel("a", mkBodies(90)),
		Parallel("b", mkBodies(90)),
	}); err != nil {
		t.Fatalf("budget leaked across phases: %v", err)
	}
}
