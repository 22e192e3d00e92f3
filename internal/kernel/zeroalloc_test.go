package kernel

import (
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
)

// Zero-allocation gates for the colored fault path (DESIGN.md
// Sec. 14.2). Each loop serves one order-0 fault through
// allocPagesFor and frees the frame straight back onto its color
// list, so every iteration sees the same lists and takes the same
// path.

// mustZeroAllocs fails unless loop is allocation-free. Under the race
// detector the instrumentation itself allocates, so the gate skips.
func mustZeroAllocs(t *testing.T, loop func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	for i := 0; i < 16; i++ {
		loop()
	}
	if n := testing.AllocsPerRun(200, loop); n != 0 {
		t.Errorf("%v allocs/op, want 0", n)
	}
}

// faultAndFree serves one fault for task and frees its frame, failing
// unless the fault came from the given rung.
func faultAndFree(t *testing.T, k *Kernel, task *Task, want Rung) {
	f, _, rung, err := k.allocPagesFor(task)
	if err != nil || rung != want {
		t.Fatalf("fault: rung %s, err %v; want rung %s", rung, err, want)
	}
	k.freeFrame(f)
}

// TestZeroAllocLLCOnlyParkedFault gates an LLC-only fault served from
// a parked list: the local-first, rotated bank walk runs in place.
func TestZeroAllocLLCOnlyParkedFault(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	setColors(t, task, nil, []int{3, 9})
	faultAndFree(t, k, task, RungNone) // the first fault refills
	refills := k.stats.Refills
	mustZeroAllocs(t, func() { faultAndFree(t, k, task, RungNone) })
	if k.stats.Refills != refills {
		t.Fatal("a measured fault refilled; every one must pop a parked page")
	}
}

// TestZeroAllocBorrowColorFault gates a MEM+LLC fault served at
// RungBorrowColor: the task's own lists are empty and its node's zone
// is dry, so the ladder lends a parked page of a bank color no task
// claims, found through the claim counts.
func TestZeroAllocBorrowColorFault(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	node := task.nodeOrder[0]
	// Shatter the whole local zone onto the color lists.
	for order := buddy.MaxOrder; order >= 0; order-- {
		for {
			head, ok := k.zones[node].AllocExact(order)
			if !ok {
				break
			}
			k.createColorList(order, k.zoneLo[node]+head)
		}
	}
	own := node * k.colors.perNode
	for lc := 0; lc < k.colors.nLLC; lc++ {
		for _, ok := k.colors.popExact(own, lc); ok; _, ok = k.colors.popExact(own, lc) {
		}
	}
	setColors(t, task, []int{own}, []int{5})
	mustZeroAllocs(t, func() { faultAndFree(t, k, task, RungBorrowColor) })
	if k.stats.DegradedAllocs[RungBorrowColor] == 0 {
		t.Fatal("no fault reached the borrow-color rung")
	}
}
