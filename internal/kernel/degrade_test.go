// Degradation-ladder tests. These live in an external test package so
// they can drive the kernel the way internal/bench does — through
// policy plans and the invariant auditor — without an import cycle.
package kernel_test

import (
	"errors"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// 64 MiB: 16384 frames, 4 per (bank, LLC) color combo — small enough
// that every policy exhausts the machine quickly.
const degradeMem = 64 << 20

func bootDegrade(t *testing.T, cfg kernel.Config) *kernel.Kernel {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(degradeMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// plannedTasks boots tasks on one core per node and applies pol's
// color plan, mirroring how the bench harness sets a run up.
func plannedTasks(t *testing.T, k *kernel.Kernel, pol policy.Policy) []*kernel.Task {
	t.Helper()
	cores := []topology.CoreID{0, 4, 8, 12}
	asn, err := policy.Plan(pol, k.Mapping(), k.Topology(), cores)
	if err != nil {
		t.Fatal(err)
	}
	proc := k.NewProcess()
	tasks := make([]*kernel.Task, len(cores))
	for i, core := range cores {
		task, err := proc.NewTask(core)
		if err != nil {
			t.Fatal(err)
		}
		if err := policy.Apply(task, asn[i]); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	return tasks
}

func auditClean(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	r := invariant.Audit(k)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Unaccounted != 0 {
		t.Fatalf("%d unaccounted frames on an un-churned kernel", r.Unaccounted)
	}
}

// TestLadderExhaustion drives every policy.All() scheme to
// machine-wide exhaustion and asserts the ladder's contract: no
// allocation fails while any free frame exists anywhere, the eventual
// failure is ErrNoMemory with both free pools at zero and no partial
// state left behind, each task's degradation rungs fire in ladder
// order, and the auditor stays clean throughout — loans included.
func TestLadderExhaustion(t *testing.T) {
	for _, pol := range policy.All() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			k := bootDegrade(t, kernel.DefaultConfig())
			tasks := plannedTasks(t, k, pol)
			n := len(tasks)
			vas := make([]uint64, n)
			for i, task := range tasks {
				va, err := task.Mmap(0, uint64(k.Mapping().Frames())*phys.PageSize, 0)
				if err != nil {
					t.Fatal(err)
				}
				vas[i] = va
			}
			// Task 0 allocates four pages per round against everyone
			// else's one: the asymmetric demand drains its preferred
			// placement while other nodes still hold memory, forcing
			// every colored policy through the ladder before the
			// machine as a whole is empty.
			weights := []int{4, 1, 1, 1}
			next := make([]uint64, n)
			done := make([]bool, n)
			seqs := make([][]kernel.Rung, n)
			alive := n
			for alive > 0 {
				for i, task := range tasks {
					if done[i] {
						continue
					}
					for w := 0; w < weights[i] && !done[i]; w++ {
						va := vas[i] + next[i]*phys.PageSize
						before := k.Stats().DegradedAllocs
						_, _, err := task.Translate(va)
						if err != nil {
							if !errors.Is(err, kernel.ErrNoMemory) {
								t.Fatalf("task %d: exhaustion error = %v, want ErrNoMemory", i, err)
							}
							if free, colored := k.FreeFrames(), k.TotalColoredFree(); free != 0 || colored != 0 {
								t.Fatalf("task %d failed with %d buddy + %d colored frames still free", i, free, colored)
							}
							if task.Resident(va) {
								t.Fatalf("task %d: failed fault left vpage resident", i)
							}
							done[i] = true
							alive--
							continue
						}
						next[i]++
						after := k.Stats().DegradedAllocs
						for r := kernel.Rung(0); r < kernel.NumRungs; r++ {
							if after[r] > before[r] {
								seqs[i] = append(seqs[i], r)
							}
						}
					}
				}
			}
			// With no frees, a task can never step back up: once a
			// rung's supply is dry it stays dry, so each task's rung
			// sequence must be non-decreasing.
			for i, seq := range seqs {
				for j := 1; j < len(seq); j++ {
					if seq[j] < seq[j-1] {
						t.Fatalf("task %d degraded out of order: %v after %v", i, seq[j], seq[j-1])
					}
				}
			}
			if pol.Colored() {
				var degraded uint64
				for _, c := range k.Stats().DegradedAllocs {
					degraded += c
				}
				if degraded == 0 {
					t.Error("colored policy exhausted the machine without a single ladder allocation")
				}
			}
			auditClean(t, k)
		})
	}
}

// TestRefillFaultDegrades forces every color-list refill to fail: the
// colored path finds nothing parked and must step to rung 2 (local
// uncolored buddy frames) even though plenty of buddy memory exists.
func TestRefillFaultDegrades(t *testing.T) {
	k := bootDegrade(t, kernel.DefaultConfig())
	tasks := plannedTasks(t, k, policy.MEMLLC)
	k.SetFaultHooks(kernel.FaultHooks{Refill: func(node int) bool { return true }})
	task := tasks[0]
	const pages = 32
	va, err := task.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
			t.Fatalf("page %d: %v (free=%d)", p, err, k.FreeFrames())
		}
	}
	st := k.Stats()
	if st.DegradedAllocs[kernel.RungLocalUncolored] != pages {
		t.Errorf("RungLocalUncolored = %d, want %d (all refills injected)",
			st.DegradedAllocs[kernel.RungLocalUncolored], pages)
	}
	if st.ColoredPages != 0 {
		t.Errorf("ColoredPages = %d with every refill failing", st.ColoredPages)
	}
	if k.Loans() != pages {
		t.Errorf("Loans = %d, want %d", k.Loans(), pages)
	}
	auditClean(t, k)
}

// TestReclaimLoans sends loans home: once the refill faults clear,
// ReclaimLoans migrates each borrowed page back onto preferred
// placement and settles the loan records.
func TestReclaimLoans(t *testing.T) {
	k := bootDegrade(t, kernel.DefaultConfig())
	tasks := plannedTasks(t, k, policy.MEMLLC)
	task := tasks[0]
	k.SetFaultHooks(kernel.FaultHooks{Refill: func(node int) bool { return true }})
	const pages = 16
	va, err := task.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if k.Loans() != pages {
		t.Fatalf("Loans = %d, want %d", k.Loans(), pages)
	}
	// Pressure subsides: faults clear, preferred placement works again.
	k.SetFaultHooks(kernel.FaultHooks{})
	moved, failed := task.ReclaimLoans()
	if moved != pages || failed != 0 {
		t.Fatalf("ReclaimLoans = (%d, %d), want (%d, 0)", moved, failed, pages)
	}
	if k.Loans() != 0 {
		t.Errorf("%d loans outstanding after reclaim", k.Loans())
	}
	if got := k.Stats().LoansReclaimed; got != pages {
		t.Errorf("LoansReclaimed = %d, want %d", got, pages)
	}
	// Every reclaimed page now satisfies the task's constraint.
	for p := uint64(0); p < pages; p++ {
		f, ok := task.FrameOfVA(va + p*phys.PageSize)
		if !ok {
			t.Fatalf("page %d not resident after reclaim", p)
		}
		bc, lc := k.FrameColors(f)
		if !task.OwnsBankColor(bc) || !task.OwnsLLCColor(lc) {
			t.Errorf("page %d reclaimed onto frame %d with colors (%d,%d) outside the task's sets", p, f, bc, lc)
		}
	}
	auditClean(t, k)
}

// TestReclaimLoansFaulted is the regression test for the reclaim
// report: a faulted reclaim used to be invisible to callers (Trim
// discarded the count entirely), so a plan injecting migration faults
// could leave loans outstanding with nothing in the stats admitting
// it. Every outcome must now be accounted: moved + failed covers the
// ledger, failed loans stay intact on it, and a later clean reclaim
// sends them home.
func TestReclaimLoansFaulted(t *testing.T) {
	k := bootDegrade(t, kernel.DefaultConfig())
	tasks := plannedTasks(t, k, policy.MEMLLC)
	task := tasks[0]
	k.SetFaultHooks(kernel.FaultHooks{Refill: func(node int) bool { return true }})
	const pages = 16
	va, err := task.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if k.Loans() != pages {
		t.Fatalf("Loans = %d, want %d", k.Loans(), pages)
	}
	// Pressure subsides, but half the page copies fault.
	k.SetFaultHooks(kernel.FaultHooks{
		Migrate: func(taskID int, vpage uint64) bool { return vpage%2 == 0 },
	})
	moved, failed := task.ReclaimLoans()
	if moved+failed != pages {
		t.Fatalf("ReclaimLoans = (%d, %d): outcomes don't cover the %d loans", moved, failed, pages)
	}
	if failed == 0 {
		t.Fatal("no injected migration fault fired")
	}
	if k.Loans() != failed {
		t.Errorf("Loans = %d after faulted reclaim, want %d (each failure keeps its loan)", k.Loans(), failed)
	}
	// The surviving loans must be intact: right task, mapped page,
	// mirror coherent — a faulted copy is a no-op, not a half-move.
	k.VisitLoans(func(f phys.Frame, lt *kernel.Task, vp uint64, rung kernel.Rung) {
		if lt != task {
			t.Errorf("frame %d: loan reassigned to task %d by a faulted reclaim", f, lt.ID())
		}
		got, ok := task.FrameOfVA(vp << phys.PageShift)
		if !ok || got != f {
			t.Errorf("frame %d: loan's vpage %#x no longer maps to it", f, vp)
		}
	})
	auditClean(t, k)
	st := k.Stats()
	if st.LoansReclaimed != uint64(moved) {
		t.Errorf("LoansReclaimed = %d, want %d", st.LoansReclaimed, moved)
	}
	// Faults clear; the retry drains the ledger.
	k.SetFaultHooks(kernel.FaultHooks{})
	moved2, failed2 := task.ReclaimLoans()
	if moved2 != failed || failed2 != 0 {
		t.Fatalf("retry ReclaimLoans = (%d, %d), want (%d, 0)", moved2, failed2, failed)
	}
	if k.Loans() != 0 {
		t.Errorf("%d loans outstanding after the retry", k.Loans())
	}
	auditClean(t, k)
}

// TestMigrateFault: an injected migration fault leaves the page on
// its old frame, counted in MigrateStats.Failed, with nothing leaked.
func TestMigrateFault(t *testing.T) {
	k := bootDegrade(t, kernel.DefaultConfig())
	proc := k.NewProcess()
	task, err := proc.NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 8
	va, err := task.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldFrames := make([]phys.Frame, pages)
	for p := uint64(0); p < pages; p++ {
		if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		oldFrames[p], _ = task.FrameOfVA(va + p*phys.PageSize)
	}
	// Color the task with a local bank color none of the resident
	// pages happens to carry, so every page genuinely needs a copy.
	have := map[int]bool{}
	for _, f := range oldFrames {
		bc, _ := k.FrameColors(f)
		have[bc] = true
	}
	target := -1
	for _, bc := range k.Mapping().BankColorsOfNode(int(k.Topology().NodeOfCore(0))) {
		if !have[bc] {
			target = bc
			break
		}
	}
	if target < 0 {
		t.Fatal("every local bank color already present; enlarge the machine")
	}
	if _, err := task.Mmap(uint64(target)|kernel.SetMemColor, 0, kernel.ColorAlloc); err != nil {
		t.Fatal(err)
	}
	k.SetFaultHooks(kernel.FaultHooks{
		Migrate: func(taskID int, vpage uint64) bool { return vpage%2 == 0 },
	})
	st, err := task.Migrate(va, pages*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed == 0 {
		t.Fatal("no migration faults fired")
	}
	if st.Scanned != pages || st.Moved+st.AlreadyOK+st.Failed != pages {
		t.Errorf("MigrateStats don't add up: %+v", st)
	}
	for p := uint64(0); p < pages; p++ {
		f, ok := task.FrameOfVA(va + p*phys.PageSize)
		if !ok {
			t.Fatalf("page %d lost by a failed migration", p)
		}
		vp := (va + p*phys.PageSize) >> phys.PageShift
		if vp%2 == 0 && f != oldFrames[p] {
			t.Errorf("page %d moved despite the injected fault", p)
		}
	}
	auditClean(t, k)
}

// TestStrictModeNoPartialState: once the ladder has spent every frame
// of the machine a fault fails with ErrNoMemory, and the failed fault
// leaves no partial mapping, no stale TLB entry and clean bookkeeping.
func TestStrictModeNoPartialState(t *testing.T) {
	k := bootDegrade(t, kernel.DefaultConfig())
	proc := k.NewProcess()
	task, err := proc.NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	// One bank + one LLC color: tiny supply, so the ladder serves
	// nearly every fault.
	if _, err := task.Mmap(0|kernel.SetMemColor, 0, kernel.ColorAlloc); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Mmap(0|kernel.SetLLCColor, 0, kernel.ColorAlloc); err != nil {
		t.Fatal(err)
	}
	// One page more than the machine has frames.
	frames := k.Mapping().Frames()
	va, err := task.Mmap(0, (frames+1)*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := uint64(0)
	for ; p <= frames; p++ {
		if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
			if !errors.Is(err, kernel.ErrNoMemory) {
				t.Fatalf("exhaustion error = %v, want ErrNoMemory", err)
			}
			break
		}
	}
	if p != frames {
		t.Fatalf("fault %d failed, want the first past the machine's %d frames", p, frames)
	}
	failVA := va + p*phys.PageSize
	if task.Resident(failVA) {
		t.Error("failed fault left the page resident")
	}
	// The failure must be stable: retrying changes nothing.
	if _, _, err := task.Translate(failVA); !errors.Is(err, kernel.ErrNoMemory) {
		t.Errorf("retry error = %v, want ErrNoMemory", err)
	}
	if free := k.FreeFrames() + k.TotalColoredFree(); free != 0 {
		t.Errorf("%d frames still free after exhaustion", free)
	}
	auditClean(t, k)
}
