package kernel

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/buddy"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// 256 MiB: 65536 frames, 16 frames per (bank color, LLC color) combo.
const testMem = 256 << 20

func boot(t *testing.T) *Kernel {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(top, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newTask(t *testing.T, k *Kernel, core topology.CoreID) *Task {
	t.Helper()
	task, err := k.NewProcess().NewTask(core)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// setColors gives the task the listed colors via the mmap protocol.
func setColors(t *testing.T, task *Task, bankColors, llcColors []int) {
	t.Helper()
	for _, c := range bankColors {
		if _, err := task.Mmap(uint64(c)|SetMemColor, 0, ColorAlloc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range llcColors {
		if _, err := task.Mmap(uint64(c)|SetLLCColor, 0, ColorAlloc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColorProtocolSetsAndClears(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	if task.UsingBank() || task.UsingLLC() {
		t.Fatal("fresh task has coloring active")
	}
	setColors(t, task, []int{3, 1}, []int{7})
	if got := task.BankColors(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("BankColors = %v, want [1 3]", got)
	}
	if got := task.LLCColors(); len(got) != 1 || got[0] != 7 {
		t.Errorf("LLCColors = %v, want [7]", got)
	}
	if !task.UsingBank() || !task.UsingLLC() {
		t.Error("flags not set")
	}
	// Clearing the last LLC color drops the flag.
	if _, err := task.Mmap(7|ClearLLCColor, 0, ColorAlloc); err != nil {
		t.Fatal(err)
	}
	if task.UsingLLC() {
		t.Error("using_llc still set after clear")
	}
	// Idempotent set.
	setColors(t, task, []int{3}, nil)
	if got := task.BankColors(); len(got) != 2 {
		t.Errorf("duplicate set changed colors: %v", got)
	}
	if k.Stats().ColorMmaps == 0 {
		t.Error("ColorMmaps not counted")
	}
}

func TestColorProtocolValidation(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	if _, err := task.Mmap(uint64(k.Mapping().NumBankColors())|SetMemColor, 0, ColorAlloc); !errors.Is(err, ErrBadColor) {
		t.Errorf("out-of-range bank color error = %v", err)
	}
	if _, err := task.Mmap(uint64(k.Mapping().NumLLCColors())|SetLLCColor, 0, ColorAlloc); !errors.Is(err, ErrBadColor) {
		t.Errorf("out-of-range LLC color error = %v", err)
	}
	if _, err := task.Mmap(99<<56|1, 0, ColorAlloc); !errors.Is(err, ErrBadMmap) {
		t.Errorf("unknown mode error = %v", err)
	}
	if _, err := task.Mmap(0, 0, 0); !errors.Is(err, ErrBadMmap) {
		t.Errorf("zero-length plain mmap error = %v", err)
	}
}

func TestUncoloredFaultPath(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	va, err := task.Mmap(0, 3*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa, cost, err := task.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	if cost != DefaultConfig().FaultCost {
		t.Errorf("first-touch cost = %d, want %d", cost, DefaultConfig().FaultCost)
	}
	// Second access: resident, no cost.
	pa2, cost2, err := task.Translate(va + 64)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != 0 {
		t.Errorf("resident access cost = %d", cost2)
	}
	if pa2 != pa+64 {
		t.Errorf("offset translation wrong: %#x vs %#x+64", pa2, pa)
	}
	if st := k.Stats(); st.BuddyPages != 1 || st.ColoredPages != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestColoredFaultRespectsColors(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	// Colors local to node 0.
	bankColors := m.BankColorsOfNode(0)[:4]
	llcColors := []int{2, 5}
	setColors(t, task, bankColors, llcColors)

	va, err := task.Mmap(0, 64*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	bankSet := map[int]bool{}
	for _, c := range bankColors {
		bankSet[c] = true
	}
	for i := uint64(0); i < 64; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		f, ok := task.FrameOfVA(va + i*phys.PageSize)
		if !ok {
			t.Fatal("page not resident after fault")
		}
		if bc := m.FrameBankColor(f); !bankSet[bc] {
			t.Errorf("page %d got bank color %d, not in %v", i, bc, bankColors)
		}
		lc := m.FrameLLCColor(f)
		if lc != 2 && lc != 5 {
			t.Errorf("page %d got LLC color %d, want 2 or 5", i, lc)
		}
		if n := m.NodeOfFrame(f); n != 0 {
			t.Errorf("page %d on node %d, want 0 (local)", i, n)
		}
	}
	if st := k.Stats(); st.ColoredPages != 64 {
		t.Errorf("ColoredPages = %d, want 64", st.ColoredPages)
	}
}

func TestColoredPagesSpreadAcrossOwnedColors(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	bankColors := m.BankColorsOfNode(0)[:4]
	setColors(t, task, bankColors, []int{0, 1})
	va, _ := task.Mmap(0, 80*phys.PageSize, 0)
	got := map[[2]int]int{}
	for i := uint64(0); i < 80; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		f, _ := task.FrameOfVA(va + i*phys.PageSize)
		got[[2]int{m.FrameBankColor(f), m.FrameLLCColor(f)}]++
	}
	if len(got) != 8 {
		t.Fatalf("pages cover %d color combos, want all 8: %v", len(got), got)
	}
	for combo, n := range got {
		if n != 10 {
			t.Errorf("combo %v received %d pages, want 10 (round robin)", combo, n)
		}
	}
}

func TestRefillCostOnlyOnColdLists(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	setColors(t, task, m.BankColorsOfNode(0)[:1], []int{0})
	va, _ := task.Mmap(0, 4*phys.PageSize, 0)

	_, cost0, err := task.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	if cost0 <= DefaultConfig().FaultCost {
		t.Errorf("cold colored fault cost %d not above base %d (no refill charged)",
			cost0, DefaultConfig().FaultCost)
	}
	// The refill shattered a whole block; the next faults of the
	// same color are served from the warm list at base cost.
	_, cost1, err := task.Translate(va + phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if cost1 != DefaultConfig().FaultCost {
		t.Errorf("warm colored fault cost = %d, want %d", cost1, DefaultConfig().FaultCost)
	}
	if st := k.Stats(); st.Refills == 0 || st.RefillFrames == 0 {
		t.Errorf("refill stats empty: %+v", st)
	}
}

func TestDisjointTasksGetDisjointFrames(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	p := k.NewProcess()
	t0, err := p.NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := p.NewTask(4)
	if err != nil {
		t.Fatal(err)
	}
	setColors(t, t0, m.BankColorsOfNode(0)[:2], []int{0, 1})
	setColors(t, t1, m.BankColorsOfNode(1)[:2], []int{2, 3})

	va0, _ := t0.Mmap(0, 32*phys.PageSize, 0)
	va1, _ := t1.Mmap(0, 32*phys.PageSize, 0)
	for i := uint64(0); i < 32; i++ {
		if _, _, err := t0.Translate(va0 + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, _, err := t1.Translate(va1 + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	// No shared bank or LLC colors, and t1's pages are on node 1.
	for i := uint64(0); i < 32; i++ {
		f0, _ := t0.FrameOfVA(va0 + i*phys.PageSize)
		f1, _ := t1.FrameOfVA(va1 + i*phys.PageSize)
		if m.NodeOfFrame(f0) != 0 || m.NodeOfFrame(f1) != 1 {
			t.Fatalf("pages not node-local: %d %d", m.NodeOfFrame(f0), m.NodeOfFrame(f1))
		}
		if m.FrameLLCColor(f0) == m.FrameLLCColor(f1) {
			t.Fatal("disjoint LLC color sets produced equal page colors")
		}
		if m.FrameBankColor(f0) == m.FrameBankColor(f1) {
			t.Fatal("disjoint bank color sets produced equal page colors")
		}
	}
}

func TestMunmapReturnsColoredPagesToColorLists(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	bc := m.BankColorsOfNode(0)[0]
	setColors(t, task, []int{bc}, []int{0})
	va, _ := task.Mmap(0, 2*phys.PageSize, 0)
	if _, _, err := task.Translate(va); err != nil {
		t.Fatal(err)
	}
	f, _ := task.FrameOfVA(va)
	before := k.ColoredFreePages(m.FrameBankColor(f), m.FrameLLCColor(f))
	if err := task.Munmap(va, 2*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	after := k.ColoredFreePages(m.FrameBankColor(f), m.FrameLLCColor(f))
	if after != before+1 {
		t.Errorf("colored free pages %d -> %d, want +1", before, after)
	}
	if task.Resident(va) {
		t.Error("page resident after munmap")
	}
	// Unmapped access faults with ErrSegfault.
	if _, _, err := task.Translate(va); !errors.Is(err, ErrSegfault) {
		t.Errorf("Translate after munmap = %v", err)
	}
}

func TestMunmapUncoloredReturnsToBuddy(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	va, _ := task.Mmap(0, phys.PageSize, 0)
	if _, _, err := task.Translate(va); err != nil {
		t.Fatal(err)
	}
	free := k.FreeFrames()
	if err := task.Munmap(va, phys.PageSize); err != nil {
		t.Fatal(err)
	}
	if k.FreeFrames() != free+1 {
		t.Errorf("buddy free frames %d -> %d, want +1", free, k.FreeFrames())
	}
	if err := task.Munmap(va, phys.PageSize); err == nil {
		t.Error("double munmap succeeded")
	}
}

// A length whose page rounding or address reservation wraps must fail
// with ErrBadMmap rather than yield an empty region or one below
// earlier regions: both binary searches over the region index rely on
// sorted, unique starts. Afterwards a normal mapping still gets a
// fresh base above every earlier one. (Nothing is touched past the
// 2^63-byte mapping: the radix page table's root would span it.)
func TestMmapRejectsOverflowingLength(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	last, err := task.Mmap(0, phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(after string) {
		t.Helper()
		va, err := task.Mmap(0, phys.PageSize, 0)
		if err != nil {
			t.Fatalf("mmap after %s: %v", after, err)
		}
		if va <= last {
			t.Fatalf("mmap after %s returned base %#x, not above the previous base %#x", after, va, last)
		}
		last = va
	}

	if _, err := task.Mmap(0, ^uint64(0), 0); !errors.Is(err, ErrBadMmap) {
		t.Fatalf("Mmap of length %#x = %v, want ErrBadMmap", ^uint64(0), err)
	}
	fresh("a length whose page rounding wraps")

	if last, err = task.Mmap(0, 1<<63, 0); err != nil {
		t.Fatalf("first 2^63-byte mapping: %v", err)
	}
	if _, err := task.Mmap(0, 1<<63, 0); !errors.Is(err, ErrBadMmap) {
		t.Fatalf("second 2^63-byte mapping = %v, want ErrBadMmap", err)
	}
	fresh("a reservation that wraps the address space")

	var prev uint64
	task.Process().VisitRegions(func(start, end uint64, _ *Task) {
		if start < prev || end <= start {
			t.Errorf("region [%#x, %#x) breaks the sorted, non-empty order after %#x", start, end, prev)
		}
		prev = end
	})
}

// TestRegionLookupEdges probes findRegion's two paths at every region
// edge: the tail probe (the last region, live and retired, and any
// address at or past its end) and the search over the starts before
// it (first and last byte of each region, a retired region, and an
// address below every region).
func TestRegionLookupEdges(t *testing.T) {
	k := boot(t)
	task := newTask(t, k, 0)
	var starts, ends []uint64
	for pages := uint64(1); pages <= 4; pages++ {
		va, err := task.Mmap(0, pages*phys.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		starts, ends = append(starts, va), append(ends, va+pages*phys.PageSize)
	}
	translates := func(va uint64, want bool) {
		t.Helper()
		_, _, err := task.Translate(va)
		if want && err != nil {
			t.Fatalf("Translate(%#x) inside a live region: %v", va, err)
		}
		if !want && !errors.Is(err, ErrSegfault) {
			t.Fatalf("Translate(%#x) outside every live region = %v, want ErrSegfault", va, err)
		}
	}
	last := len(starts) - 1
	for i := range starts {
		translates(starts[i], true)
		translates(ends[i]-1, true)
	}
	translates(starts[0]-1, false)
	translates(ends[last], false)
	translates(ends[last]+8*phys.PageSize, false)
	if err := task.Munmap(ends[last], phys.PageSize); !errors.Is(err, ErrSegfault) {
		t.Fatalf("Munmap past the last region = %v, want ErrSegfault", err)
	}

	for _, i := range []int{1, last} {
		if err := task.Munmap(starts[i], ends[i]-starts[i]); err != nil {
			t.Fatal(err)
		}
		translates(starts[i], false)
		translates(ends[i]-1, false)
	}
	translates(ends[0]-1, true)
	translates(starts[2], true)
}

func TestSharedAddressSpaceAcrossTasks(t *testing.T) {
	k := boot(t)
	p := k.NewProcess()
	t0, _ := p.NewTask(0)
	t1, _ := p.NewTask(1)
	va, err := t0.Mmap(0, phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// t0 first-touches; t1 sees the same frame (shared page table).
	pa0, _, err := t0.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	pa1, cost, err := t1.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	if pa0 != pa1 {
		t.Errorf("tasks see different frames: %#x vs %#x", pa0, pa1)
	}
	if cost != 0 {
		t.Errorf("second task paid fault cost %d", cost)
	}
}

func TestNewTaskValidation(t *testing.T) {
	k := boot(t)
	p := k.NewProcess()
	if _, err := p.NewTask(99); err == nil {
		t.Error("NewTask accepted invalid core")
	}
}

func TestKernelNodeMismatch(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(top, m, DefaultConfig()); err == nil {
		t.Error("New accepted topology/mapping node mismatch")
	}
}

func TestLLCOnlyColoring(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	setColors(t, task, nil, []int{9})
	va, _ := task.Mmap(0, 8*phys.PageSize, 0)
	for i := uint64(0); i < 8; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		f, _ := task.FrameOfVA(va + i*phys.PageSize)
		if lc := m.FrameLLCColor(f); lc != 9 {
			t.Errorf("LLC-only page has color %d, want 9", lc)
		}
	}
}

func TestBankOnlyColoring(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	bc := m.BankColorsOfNode(2)[3]
	setColors(t, task, []int{bc}, nil)
	va, _ := task.Mmap(0, 8*phys.PageSize, 0)
	llcSeen := map[int]bool{}
	for i := uint64(0); i < 8; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		f, _ := task.FrameOfVA(va + i*phys.PageSize)
		if got := m.FrameBankColor(f); got != bc {
			t.Errorf("bank-only page has bank color %d, want %d", got, bc)
		}
		llcSeen[m.FrameLLCColor(f)] = true
	}
	if len(llcSeen) < 2 {
		t.Errorf("bank-only coloring pinned LLC colors too: %v", llcSeen)
	}
}

func TestDeterministicColoredAllocation(t *testing.T) {
	run := func() []phys.Frame {
		k := boot(t)
		m := k.Mapping()
		task := newTask(t, k, 0)
		setColors(t, task, m.BankColorsOfNode(0)[:2], []int{0, 1})
		va, _ := task.Mmap(0, 16*phys.PageSize, 0)
		var out []phys.Frame
		for i := uint64(0); i < 16; i++ {
			if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
				t.Fatal(err)
			}
			f, _ := task.FrameOfVA(va + i*phys.PageSize)
			out = append(out, f)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic colored placement at page %d", i)
		}
	}
}

func TestDefaultPolicyIsLocalFirst(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	// An uncolored task on core 8 (node 2) gets node-2 frames.
	task := newTask(t, k, 8)
	va, _ := task.Mmap(0, 16*phys.PageSize, 0)
	for i := uint64(0); i < 16; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		f, _ := task.FrameOfVA(va + i*phys.PageSize)
		if n := m.NodeOfFrame(f); n != 2 {
			t.Errorf("uncolored page %d on node %d, want local node 2", i, n)
		}
	}
}

func TestDefaultPolicyFallsBackByHopDistance(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	// Exhaust node 0's zone, then an uncolored task on core 0 must
	// spill to node 1 (2 hops) before nodes 2/3 (3 hops).
	filler := newTask(t, k, 0)
	perNode := m.Frames() / uint64(m.Nodes())
	vaF, _ := filler.Mmap(0, perNode*phys.PageSize, 0)
	for i := uint64(0); i < perNode; i++ {
		if _, _, err := filler.Translate(vaF + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if k.FreeFramesOfNode(0) != 0 {
		t.Fatalf("node 0 zone not exhausted: %d left", k.FreeFramesOfNode(0))
	}
	task := newTask(t, k, 0)
	va, _ := task.Mmap(0, phys.PageSize, 0)
	if _, _, err := task.Translate(va); err != nil {
		t.Fatal(err)
	}
	f, _ := task.FrameOfVA(va)
	if n := m.NodeOfFrame(f); n != 1 {
		t.Errorf("spill went to node %d, want nearest node 1", n)
	}
}

func TestColoredRefillSkipsForeignZones(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	// Colors on node 3 only (a remote node): refill must still find
	// them and never shatter blocks from other nodes.
	setColors(t, task, m.BankColorsOfNode(3)[:2], nil)
	va, _ := task.Mmap(0, 8*phys.PageSize, 0)
	for i := uint64(0); i < 8; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
		f, _ := task.FrameOfVA(va + i*phys.PageSize)
		if n := m.NodeOfFrame(f); n != 3 {
			t.Errorf("page on node %d, want 3", n)
		}
	}
	// Zones 0..2 must be untouched (their frame counts intact).
	perNode := m.Frames() / uint64(m.Nodes())
	for n := 0; n < 3; n++ {
		if k.FreeFramesOfNode(n) != perNode {
			t.Errorf("zone %d lost frames to a node-3 colored task", n)
		}
	}
}

func TestAllocPagesOrderZeroUsesColoredPath(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	setColors(t, task, m.BankColorsOfNode(0)[:1], []int{0})
	f, _, err := k.AllocPages(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.FrameBankColor(f) != m.BankColorsOfNode(0)[0] || m.FrameLLCColor(f) != 0 {
		t.Errorf("order-0 AllocPages ignored colors: bank %d llc %d",
			m.FrameBankColor(f), m.FrameLLCColor(f))
	}
	if err := k.FreePages(f, 0); err != nil {
		t.Fatal(err)
	}
	// Freed colored page rejoined its color list, not the buddy.
	if k.ColoredFreePages(m.FrameBankColor(f), m.FrameLLCColor(f)) == 0 {
		t.Error("colored frame did not rejoin its color list")
	}
}

// Paper Algorithm 1 line 27-28: orders greater than zero default to
// the standard buddy allocator even for colored tasks.
func TestAllocPagesHigherOrderBypassesColoring(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	task := newTask(t, k, 0)
	setColors(t, task, m.BankColorsOfNode(0)[:1], []int{0})
	f, _, err := k.AllocPages(task, 4) // 64 KiB block
	if err != nil {
		t.Fatal(err)
	}
	// A 16-frame block cannot be of a single color (colors change
	// every frame under the separable mapping), proving the buddy
	// path served it; it must still be node-local.
	if n := m.NodeOfFrame(f); n != 0 {
		t.Errorf("order-4 block on node %d, want local node 0", n)
	}
	colors := map[int]bool{}
	for i := phys.Frame(0); i < 16; i++ {
		colors[m.FrameLLCColor(f+i)] = true
	}
	if len(colors) < 2 {
		t.Error("order-4 block suspiciously single-colored; colored path leaked")
	}
	free := k.FreeFrames()
	if err := k.FreePages(f, 4); err != nil {
		t.Fatal(err)
	}
	if k.FreeFrames() != free+16 {
		t.Errorf("FreePages(order 4) returned %d frames", k.FreeFrames()-free)
	}
	if _, _, err := k.AllocPages(task, 99); err == nil {
		t.Error("AllocPages accepted out-of-range order")
	}
}

// Property: across a random mix of colored and uncolored tasks
// allocating and freeing, no physical frame is ever resident at two
// virtual pages at once, and all colored pages always match their
// owner's colors.
func TestNoFrameDoubleUseUnderMixedLoad(t *testing.T) {
	k := boot(t)
	m := k.Mapping()
	p := k.NewProcess()

	type actor struct {
		task  *Task
		pages []uint64 // resident VAs
		banks map[int]bool
		llcs  map[int]bool
	}
	var actors []*actor
	for i := 0; i < 6; i++ {
		core := topology.CoreID((i * 3) % 16)
		task, err := p.NewTask(core)
		if err != nil {
			t.Fatal(err)
		}
		a := &actor{task: task, banks: map[int]bool{}, llcs: map[int]bool{}}
		if i%2 == 0 { // colored actors
			node := int(k.Topology().NodeOfCore(core))
			for _, bc := range m.BankColorsOfNode(node)[i : i+4] {
				if _, err := task.Mmap(uint64(bc)|SetMemColor, 0, ColorAlloc); err != nil {
					t.Fatal(err)
				}
				a.banks[bc] = true
			}
			for lc := i * 4; lc < i*4+8; lc++ {
				if _, err := task.Mmap(uint64(lc)|SetLLCColor, 0, ColorAlloc); err != nil {
					t.Fatal(err)
				}
				a.llcs[lc] = true
			}
		}
		actors = append(actors, a)
	}

	owner := map[phys.Frame]int{} // frame -> actor index
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 1500; step++ {
		ai := rng.Intn(len(actors))
		a := actors[ai]
		if rng.Intn(3) > 0 || len(a.pages) == 0 {
			va, err := a.task.Mmap(0, phys.PageSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := a.task.Translate(va); err != nil {
				t.Fatal(err)
			}
			f, _ := a.task.FrameOfVA(va)
			if prev, dup := owner[f]; dup {
				t.Fatalf("step %d: frame %d owned by actors %d and %d", step, f, prev, ai)
			}
			owner[f] = ai
			a.pages = append(a.pages, va)
			if len(a.banks) > 0 && !a.banks[m.FrameBankColor(f)] {
				t.Fatalf("step %d: actor %d got foreign bank color %d", step, ai, m.FrameBankColor(f))
			}
			if len(a.llcs) > 0 && !a.llcs[m.FrameLLCColor(f)] {
				t.Fatalf("step %d: actor %d got foreign LLC color %d", step, ai, m.FrameLLCColor(f))
			}
		} else {
			idx := rng.Intn(len(a.pages))
			va := a.pages[idx]
			f, _ := a.task.FrameOfVA(va)
			if err := a.task.Munmap(va, phys.PageSize); err != nil {
				t.Fatal(err)
			}
			delete(owner, f)
			a.pages[idx] = a.pages[len(a.pages)-1]
			a.pages = a.pages[:len(a.pages)-1]
		}
	}
}

func TestUncoloredOutOfMemory(t *testing.T) {
	// A machine with tiny memory: exhaust every zone through one
	// task, then the next fault must fail cleanly with ErrNoMemory.
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(16<<20, top.Nodes()) // 4096 frames
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(top, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	task := newTask(t, k, 0)
	total := m.Frames()
	va, _ := task.Mmap(0, total*phys.PageSize, 0)
	for i := uint64(0); i < total; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatalf("fault %d of %d failed early: %v", i, total, err)
		}
	}
	if k.FreeFrames() != 0 {
		t.Fatalf("%d frames still free after exhausting memory", k.FreeFrames())
	}
	va2, _ := task.Mmap(0, phys.PageSize, 0)
	if _, _, err := task.Translate(va2); !errors.Is(err, ErrNoMemory) {
		t.Errorf("post-exhaustion fault error = %v, want ErrNoMemory", err)
	}
	// Freeing one page makes allocation work again.
	if err := task.Munmap(va2, phys.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := task.Munmap(va, total*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	if k.FreeFrames() != total {
		t.Errorf("frames not all returned: %d of %d", k.FreeFrames(), total)
	}
}

func TestNewWithZonesValidation(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	zones, err := BuildZones(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithZones(top, m, DefaultConfig(), zones[:2]); err == nil {
		t.Error("NewWithZones accepted wrong zone count")
	}
	wrong, err := buddy.New(16)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]*buddy.Allocator{wrong}, zones[1:]...)
	if _, err := NewWithZones(top, m, DefaultConfig(), bad); err == nil {
		t.Error("NewWithZones accepted wrong zone size")
	}
	if _, err := NewWithZones(top, m, DefaultConfig(), zones); err != nil {
		t.Errorf("NewWithZones rejected valid zones: %v", err)
	}
}

func TestChurnValidation(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ChurnSeed = 1
	cfg.HoldoutFrac = 1.5 // invalid
	if _, err := New(top, m, cfg); err == nil {
		t.Error("New accepted holdout > 1")
	}
}
