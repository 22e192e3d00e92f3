// External test package: the invariant auditor imports kernel, so
// wiring it into kernel tests has to happen from kernel_test to avoid
// an import cycle. These tests are the kernel's half of the runtime
// correctness gate (see DESIGN.md Sec. 7).
package kernel_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const auditMem = 256 << 20

func bootKernel(t *testing.T, cfg kernel.Config) *kernel.Kernel {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(auditMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mustAudit(t *testing.T, k *kernel.Kernel) *invariant.Report {
	t.Helper()
	r := invariant.Audit(k)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return r
}

func setTaskColors(t *testing.T, task *kernel.Task, banks, llcs []int) {
	t.Helper()
	for _, c := range banks {
		if _, err := task.Mmap(uint64(c)|kernel.SetMemColor, 0, kernel.ColorAlloc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range llcs {
		if _, err := task.Mmap(uint64(c)|kernel.SetLLCColor, 0, kernel.ColorAlloc); err != nil {
			t.Fatal(err)
		}
	}
}

// Mixed colored/uncolored allocation and teardown must keep every
// frame singly owned and fully accounted at every step.
func TestAuditAcrossAllocationLifecycle(t *testing.T) {
	k := bootKernel(t, kernel.DefaultConfig())
	m := k.Mapping()
	proc := k.NewProcess()

	colored, err := proc.NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	setTaskColors(t, colored, m.BankColorsOfNode(0)[:2], []int{3, 4})
	plain, err := proc.NewTask(4)
	if err != nil {
		t.Fatal(err)
	}

	const pages = 64
	vaC, err := colored.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	vaP, err := plain.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		if _, _, err := colored.Translate(vaC + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plain.Translate(vaP + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	r := mustAudit(t, k)
	if r.Mapped != 2*pages {
		t.Errorf("Mapped = %d, want %d", r.Mapped, 2*pages)
	}
	if r.Unaccounted != 0 {
		t.Errorf("leaked %d frames mid-run", r.Unaccounted)
	}

	if err := colored.Munmap(vaC, pages*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := plain.Munmap(vaP, pages*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	r = mustAudit(t, k)
	if r.Mapped != 0 || r.Unaccounted != 0 {
		t.Errorf("after teardown: %+v", r)
	}
}

// mapThree boots a kernel whose one task maps three 2-page regions
// and touches the second page of each, and audits it clean.
func mapThree(t *testing.T) (*kernel.Kernel, *kernel.Process, *kernel.Task, []uint64) {
	t.Helper()
	k := bootKernel(t, kernel.DefaultConfig())
	proc := k.NewProcess()
	task, err := proc.NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	var bases []uint64
	for i := 0; i < 3; i++ {
		va, err := task.Mmap(0, 2*phys.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := task.Translate(va + phys.PageSize); err != nil {
			t.Fatal(err)
		}
		bases = append(bases, va)
	}
	mustAudit(t, k)
	return k, proc, task, bases
}

// TestAuditFlagsStrandedPage retires a region as a tombstone while
// its touched page stays resident and requires the auditor to name
// that vpage: no Munmap can ever free it again, and nothing else
// fails.
func TestAuditFlagsStrandedPage(t *testing.T) {
	k, proc, task, bases := mapThree(t)
	va := bases[1] + phys.PageSize
	f, _ := task.FrameOfVA(va)
	proc.TombstoneRegion(bases[1])
	err := invariant.Audit(k).Err()
	want := fmt.Sprintf("process %d vpage %#x (frame %d) is resident outside every live region",
		proc.ID(), va>>phys.PageShift, f)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit after tombstoning a resident region: %v\nwant a violation containing %q", err, want)
	}
}

// TestAuditFlagsMisorderedRegions grows one region over its
// successor and empties another, and requires the auditor to name
// both: either breaks the sorted, non-overlapping order the region
// index's binary search relies on.
func TestAuditFlagsMisorderedRegions(t *testing.T) {
	k, proc, task, bases := mapThree(t)
	proc.SetRegionEnd(bases[0], bases[1]+phys.PageSize)
	proc.SetRegionEnd(bases[2], bases[2])
	err := invariant.Audit(k).Err()
	for _, want := range []string{
		fmt.Sprintf("process %d region [%#x, %#x) of task %d overlaps or precedes the region [%#x, %#x)",
			proc.ID(), bases[1], bases[2], task.ID(), bases[0], bases[1]+phys.PageSize),
		fmt.Sprintf("process %d region [%#x, %#x) of task %d is empty", proc.ID(), bases[2], bases[2], task.ID()),
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("audit after corrupting the region order: %v\nwant a violation containing %q", err, want)
		}
	}
}

// onlyViolation audits k and requires exactly one violation, equal
// to want.
func onlyViolation(t *testing.T, k *kernel.Kernel, want string) {
	t.Helper()
	r := invariant.Audit(k)
	if len(r.Violations) != 1 || r.Violations[0] != want {
		t.Fatalf("audit violations: %q\nwant exactly %q", r.Violations, want)
	}
}

// TestAuditFlagsFlippedOccupancyBit flips one color list's occupancy
// bit each way and requires the auditor to name exactly that list: a
// clear bit over parked frames strands them (every colored pop scans
// the bits, not the lists), and a set bit over an empty list sends a
// pop to nothing.
func TestAuditFlagsFlippedOccupancyBit(t *testing.T) {
	k := bootKernel(t, kernel.DefaultConfig())
	task, err := k.NewProcess().NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	bc := k.Mapping().BankColorsOfNode(0)[0]
	setTaskColors(t, task, []int{bc}, []int{3})
	va, err := task.Mmap(0, phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := task.Translate(va); err != nil { // the refill parks a block's frames
		t.Fatal(err)
	}
	mustAudit(t, k)
	var full, empty [2]int // (bank color, LLC color) of a parked and of an empty list
	full[0], empty[0] = -1, -1
	k.VisitColorLists(func(b, lc int, frames []phys.Frame, _ bool) {
		if len(frames) > 0 && full[0] < 0 {
			full = [2]int{b, lc}
		} else if len(frames) == 0 && empty[0] < 0 {
			empty = [2]int{b, lc}
		}
	})
	if full[0] < 0 || empty[0] < 0 {
		t.Fatal("one refill must leave a parked list and an empty one")
	}

	k.FlipOccupancyBit(full[0], full[1])
	onlyViolation(t, k, fmt.Sprintf("color list [%d][%d] holds %d frames but its occupancy bit is clear; every pop skips them",
		full[0], full[1], k.ColoredFreePages(full[0], full[1])))
	k.FlipOccupancyBit(full[0], full[1])
	mustAudit(t, k)

	k.FlipOccupancyBit(empty[0], empty[1])
	onlyViolation(t, k, fmt.Sprintf("color list [%d][%d] is empty but its occupancy bit is set", empty[0], empty[1]))
}

// TestAuditFlagsSkewedClaimCount moves one color's claim count away
// from the tasks that hold it and requires the auditor to name
// exactly that color: the ladder reads the counts to decide which
// colors it may lend.
func TestAuditFlagsSkewedClaimCount(t *testing.T) {
	k := bootKernel(t, kernel.DefaultConfig())
	proc := k.NewProcess()
	banks := k.Mapping().BankColorsOfNode(0)
	for i, core := range []topology.CoreID{0, 1} {
		task, err := proc.NewTask(core)
		if err != nil {
			t.Fatal(err)
		}
		// Both tasks share LLC color 7, so its count is 2.
		setTaskColors(t, task, banks[2*i:2*i+2], []int{7, 8 + i})
	}
	mustAudit(t, k)

	k.SkewColorClaims(true, banks[1], 1)
	onlyViolation(t, k, fmt.Sprintf("bank color %d: claim count 2 but 1 tasks hold it", banks[1]))
	k.SkewColorClaims(true, banks[1], -1)

	k.SkewColorClaims(false, 7, -1)
	onlyViolation(t, k, "LLC color 7: claim count 1 but 2 tasks hold it")
}

// A churned kernel intentionally pins HoldoutFrac of each zone as
// permanently-resident foreign memory; the audit must account for
// exactly that many unowned frames and nothing else.
func TestAuditChurnHoldoutAccounting(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.ChurnSeed = 42
	cfg.HoldoutFrac = 0.25
	k := bootKernel(t, cfg)
	m := k.Mapping()
	r := mustAudit(t, k)
	perZone := m.Frames() / uint64(m.Nodes())
	wantHoldout := uint64(m.Nodes()) * uint64(0.25*float64(perZone))
	if r.Unaccounted != wantHoldout {
		t.Errorf("Unaccounted = %d, want churn holdout %d", r.Unaccounted, wantHoldout)
	}
}

// Satellite: migration recolor paths. After Migrate, no frame may be
// left on a stale color list, no old frame may leak, and the page
// table and color lists must stay disjoint — checked by the auditor
// after every step of a set → migrate → recolor → migrate sequence.
func TestMigrateRecolorAudited(t *testing.T) {
	k := bootKernel(t, kernel.DefaultConfig())
	m := k.Mapping()
	task, err := k.NewProcess().NewTask(0)
	if err != nil {
		t.Fatal(err)
	}

	const pages = 32
	va, err := task.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	mustAudit(t, k)

	// First coloring: two banks on node 0, LLC colors {5, 6}.
	banksA := m.BankColorsOfNode(0)[2:4]
	setTaskColors(t, task, banksA, []int{5, 6})
	if _, err := task.Migrate(va, pages*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	r := mustAudit(t, k)
	if r.Unaccounted != 0 {
		t.Fatalf("migration leaked %d frames", r.Unaccounted)
	}
	assertMappedMatchColors(t, k, task, va, pages)

	// Recolor: drop the bank constraint entirely and move the LLC
	// set; migrate again. The frames allocated under the first
	// coloring go stale and must land back on the color lists
	// matching their true hash. (Keeping a single bank color here
	// would shrink the exact-combo pool below the region size —
	// each (bc, lc) combo owns only frames/(banks*llcs) frames.)
	for _, bc := range banksA {
		if _, err := task.Mmap(uint64(bc)|kernel.ClearMemColor, 0, kernel.ColorAlloc); err != nil {
			t.Fatal(err)
		}
	}
	for _, lc := range []int{5, 6} {
		if _, err := task.Mmap(uint64(lc)|kernel.ClearLLCColor, 0, kernel.ColorAlloc); err != nil {
			t.Fatal(err)
		}
	}
	setTaskColors(t, task, nil, []int{9})
	st, err := task.Migrate(va, pages*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved == 0 {
		t.Fatal("recolor migration moved nothing")
	}
	r = mustAudit(t, k)
	if r.Unaccounted != 0 {
		t.Fatalf("recolor migration leaked %d frames", r.Unaccounted)
	}
	assertMappedMatchColors(t, k, task, va, pages)
}

// assertMappedMatchColors checks every resident page of [va, va+n)
// against the task's current color sets.
func assertMappedMatchColors(t *testing.T, k *kernel.Kernel, task *kernel.Task, va uint64, pages uint64) {
	t.Helper()
	m := k.Mapping()
	bankSet := map[int]bool{}
	for _, c := range task.BankColors() {
		bankSet[c] = true
	}
	llcSet := map[int]bool{}
	for _, c := range task.LLCColors() {
		llcSet[c] = true
	}
	for i := uint64(0); i < pages; i++ {
		f, ok := task.FrameOfVA(va + i*phys.PageSize)
		if !ok {
			t.Fatalf("page %d lost residency", i)
		}
		if task.UsingBank() && !bankSet[m.FrameBankColor(f)] {
			t.Errorf("page %d on bank color %d, want one of %v", i, m.FrameBankColor(f), task.BankColors())
		}
		if task.UsingLLC() && !llcSet[m.FrameLLCColor(f)] {
			t.Errorf("page %d on LLC color %d, want one of %v", i, m.FrameLLCColor(f), task.LLCColors())
		}
	}
}
