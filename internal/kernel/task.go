package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// ColorAlloc is the mmap protection flag (bit 30, paper Fig. 6) that
// marks a zero-length mmap call as a color-selection request.
const ColorAlloc uint32 = 1 << 30

// Color-selection modes, pre-shifted so callers write the paper's
// idiom directly:
//
//	task.Mmap(uint64(color)|kernel.SetLLCColor, 0, prot|kernel.ColorAlloc)
const (
	colorModeShift        = 56
	colorMask      uint64 = (1 << colorModeShift) - 1

	// SetMemColor adds a memory (controller/bank) color to the task.
	SetMemColor uint64 = 1 << colorModeShift
	// ClearMemColor removes a memory color from the task.
	ClearMemColor uint64 = 2 << colorModeShift
	// SetLLCColor adds an LLC color to the task.
	SetLLCColor uint64 = 3 << colorModeShift
	// ClearLLCColor removes an LLC color from the task.
	ClearLLCColor uint64 = 4 << colorModeShift
)

// vaBase is the first virtual address handed out by mmap. The
// virtual address space is independent of physical memory size.
const vaBase uint64 = 1 << 36

type region struct {
	start, end uint64 // [start, end), page aligned
	// owner is the task whose Mmap created the region. First-touch
	// pages of another task inside it are legal (shared data); the
	// compaction scan (adaptive.go) uses ownership to bound which
	// resident pages a task may migrate toward its own colors. A nil
	// owner marks a tombstone: a region Munmap retired in place.
	owner *Task
}

// Process is an address space shared by its tasks (threads). Heap
// pages are faulted in on first touch by whichever task touches them,
// using that task's coloring policy — the first-touch semantics the
// paper's benchmark analysis relies on.
//
// The page table is the two-level radix array of radixpt.go.
//
// regions is sorted by start, and starts are unique: bump allocation
// appends in order and never reuses a virtual address. Munmap leaves
// tombstones (owner nil) that compactRegions later drops; both keep
// the order findRegion's binary search relies on.
type Process struct {
	k       *Kernel
	id      int
	pt      RadixPT  // page table, shared by the process's tasks
	regions []region // sorted by start, tombstones included
	starts  []uint64 // starts[i] == regions[i].start, packed for findRegion
	dead    int      // tombstones in regions
	nextVA  uint64
	tasks   []*Task
}

// ID returns the process identifier.
func (p *Process) ID() int { return p.id }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Tasks returns the process's tasks in creation order.
func (p *Process) Tasks() []*Task { return append([]*Task(nil), p.tasks...) }

// NewTask creates a task (thread) pinned to the given core. Pinning
// is static for the task's lifetime, matching the paper's assumption
// that task-to-core assignments do not migrate.
func (p *Process) NewTask(core topology.CoreID) (*Task, error) {
	if !p.k.topo.ValidCore(core) {
		return nil, fmt.Errorf("kernel: invalid core %d", core)
	}
	t := &Task{
		id:        p.k.nextTaskID,
		proc:      p,
		core:      core,
		bankSet:   make([]bool, p.k.mapping.NumBankColors()),
		llcMask:   make([]uint64, p.k.colors.words),
		nodeSet:   make([]bool, p.k.mapping.Nodes()),
		nodeOrder: p.k.topo.NodeOrder(core),
		tlb:       make([]tlbEntry, TLBEntries),
	}
	p.k.nextTaskID++
	p.tasks = append(p.tasks, t)
	return t, nil
}

// findRegion returns the index of the entry, live or tombstone, whose
// range holds va, or -1. It probes the last entry first, since a fresh
// Mmap's first touch lands there. Otherwise it searches the starts
// before it for the last one at or below va: a fixed number of
// halvings, each turning the comparison's borrow into a mask, so no
// branch depends on the data.
func (p *Process) findRegion(va uint64) int {
	starts := p.starts
	n := len(starts) - 1
	if n < 0 {
		return -1
	}
	if starts[n] <= va {
		if va < p.regions[n].end {
			return n
		}
		return -1 // every other region ends at or below starts[n]
	}
	base := 0
	for n > 1 {
		half := n >> 1
		_, below := bits.Sub64(va, starts[base+half], 0) // 1 when va < start
		base += half & (int(below) - 1)
		n -= half
	}
	if starts[base] <= va && va < p.regions[base].end {
		return base
	}
	return -1
}

// mapped reports whether va lies inside a live region.
func (p *Process) mapped(va uint64) bool {
	i := p.findRegion(va)
	return i >= 0 && p.regions[i].owner != nil
}

// compactRegions drops the tombstones in one in-place pass, keeping
// the live regions' order and the backing array.
func (p *Process) compactRegions() {
	live, starts := p.regions[:0], p.starts[:0]
	for _, r := range p.regions {
		if r.owner != nil {
			live = append(live, r)
			starts = append(starts, r.start)
		}
	}
	p.regions, p.starts = live, starts
	p.dead = 0
}

// Task is the simulated task control block: pinned core, coloring
// flags and color sets (paper Sec. III-B).
type Task struct {
	id         int
	proc       *Process
	core       topology.CoreID
	usingBank  bool
	usingLLC   bool
	bankColors []int // sorted owned memory colors
	llcColors  []int // sorted owned LLC colors
	bankSet    []bool
	llcMask    []uint64 // owned LLC colors, in the color table's row layout
	nodeSet    []bool   // nodes reachable through the owned bank colors
	nodeOrder  []int    // zones in increasing hop distance from core
	// comboCursor round-robins over the owned colors: the index into
	// bankColors of the next combination under MEM+LLC and bank-only
	// coloring, the index into llcColors under LLC-only coloring.
	// Under MEM+LLC, comboLLC completes it: the next combination is
	// the first owned LLC color at or above comboLLC.
	comboCursor int
	comboLLC    int
	faultCount  uint64     // faults served; drives chunked placement luck
	llcScan     int        // rotating LLC column for bank-only coloring
	bankScan    int        // rotating bank offset for LLC-only coloring
	tlb         []tlbEntry // direct-mapped translation cache
	degraded    uint64     // ladder allocations charged to this task
	// compactCursor is the next virtual page the incremental
	// misplaced-page scan of CompactStep resumes from (adaptive.go);
	// reset by Repolicy, since a color change restarts the scan.
	compactCursor uint64
}

// advanceCombo moves the MEM+LLC cursor past the combination
// (bankColors[bi], lc) just popped: to the next owned LLC color of the
// same bank color, or to the next bank color's first, wrapping after
// the last combination.
func (t *Task) advanceCombo(bi, lc int) {
	if lc < t.llcColors[len(t.llcColors)-1] {
		t.comboCursor, t.comboLLC = bi, lc+1
		return
	}
	if bi++; bi == len(t.bankColors) {
		bi = 0
	}
	t.comboCursor, t.comboLLC = bi, 0
}

// ownsLLC reports whether LLC color c is in the task's set.
func (t *Task) ownsLLC(c int) bool { return t.llcMask[c>>6]&(1<<(c&63)) != 0 }

// setBank adds (on) or removes bank color c, keeping bankSet, the
// sorted bankColors and the kernel's per-color claim count in step.
// The caller recomputes usingBank and nodeSet.
func (t *Task) setBank(c int, on bool) {
	if t.bankSet[c] == on {
		return
	}
	t.bankSet[c] = on
	if on {
		t.bankColors = insertSorted(t.bankColors, c)
		t.proc.k.bankClaims[c].Add(1)
	} else {
		t.bankColors = removeSorted(t.bankColors, c)
		t.proc.k.bankClaims[c].Add(-1)
	}
}

// setLLC is setBank for LLC color c and the task's LLC bitmap.
func (t *Task) setLLC(c int, on bool) {
	if t.ownsLLC(c) == on {
		return
	}
	t.llcMask[c>>6] ^= 1 << (c & 63)
	if on {
		t.llcColors = insertSorted(t.llcColors, c)
		t.proc.k.llcClaims[c].Add(1)
	} else {
		t.llcColors = removeSorted(t.llcColors, c)
		t.proc.k.llcClaims[c].Add(-1)
	}
}

// ID returns the task identifier (unique across the kernel).
func (t *Task) ID() int { return t.id }

// Core returns the core the task is pinned to.
func (t *Task) Core() topology.CoreID { return t.core }

// Process returns the owning address space.
func (t *Task) Process() *Process { return t.proc }

// UsingBank reports whether memory (controller/bank) coloring is active.
func (t *Task) UsingBank() bool { return t.usingBank }

// UsingLLC reports whether LLC coloring is active.
func (t *Task) UsingLLC() bool { return t.usingLLC }

// Faults returns the page faults this task has triggered — the
// footprint feature of the adaptive classifier (each first touch
// faults exactly one page).
func (t *Task) Faults() uint64 { return t.faultCount }

// Degraded returns the degradation-ladder allocations charged to this
// task — the loan-rate feature of the adaptive classifier.
func (t *Task) Degraded() uint64 { return t.degraded }

// BankColors returns a copy of the owned memory colors.
func (t *Task) BankColors() []int { return append([]int(nil), t.bankColors...) }

// LLCColors returns a copy of the owned LLC colors.
func (t *Task) LLCColors() []int { return append([]int(nil), t.llcColors...) }

// Mmap is the simulated system call. Two forms exist, as in the
// paper:
//
//   - Color selection: length == 0 and prot has ColorAlloc set. addr
//     encodes a mode (SetMemColor and friends) OR'ed with a color.
//     The call updates the TCB and returns 0.
//   - Anonymous mapping: length > 0. A page-aligned virtual range is
//     reserved and its base returned; frames are assigned on first
//     touch via Translate.
func (t *Task) Mmap(addr, length uint64, prot uint32) (uint64, error) {
	if prot&ColorAlloc != 0 && length == 0 {
		return 0, t.setColor(addr)
	}
	if length == 0 {
		return 0, fmt.Errorf("%w: zero length without ColorAlloc", ErrBadMmap)
	}
	// Reject a length whose page rounding or reservation would wrap:
	// the region would be empty or land below earlier ones, breaking
	// the sorted, unique starts the region index searches.
	if length > math.MaxUint64-(phys.PageSize-1) {
		return 0, fmt.Errorf("%w: length %#x overflows page rounding", ErrBadMmap, length)
	}
	size := (length + phys.PageSize - 1) &^ (phys.PageSize - 1)
	base := t.proc.nextVA
	if size > math.MaxUint64-base {
		return 0, fmt.Errorf("%w: length %#x overflows the address space at %#x", ErrBadMmap, length, base)
	}
	t.proc.nextVA += size
	t.proc.regions = append(t.proc.regions, region{base, base + size, t})
	t.proc.starts = append(t.proc.starts, base)
	return base, nil
}

func (t *Task) setColor(arg uint64) error {
	mode := arg &^ colorMask
	color := int(arg & colorMask)
	k := t.proc.k
	k.stats.ColorMmaps++
	switch mode {
	case SetMemColor, ClearMemColor:
		if color < 0 || color >= k.mapping.NumBankColors() {
			return fmt.Errorf("%w: memory color %d (have %d)", ErrBadColor, color, k.mapping.NumBankColors())
		}
		t.setBank(color, mode == SetMemColor)
		t.usingBank = len(t.bankColors) > 0
		for i := range t.nodeSet {
			t.nodeSet[i] = false
		}
		for _, bc := range t.bankColors {
			t.nodeSet[k.mapping.NodeOfBankColor(bc)] = true
		}
	case SetLLCColor, ClearLLCColor:
		if color < 0 || color >= k.mapping.NumLLCColors() {
			return fmt.Errorf("%w: LLC color %d (have %d)", ErrBadColor, color, k.mapping.NumLLCColors())
		}
		t.setLLC(color, mode == SetLLCColor)
		t.usingLLC = len(t.llcColors) > 0
	default:
		return fmt.Errorf("%w: unknown color mode %#x", ErrBadMmap, mode>>colorModeShift)
	}
	t.comboCursor, t.comboLLC = 0, 0
	// Recoloring flushes the task's TLB — the conservative model of a
	// recolor-triggered shootdown (cached translations stay valid, so
	// this affects wall-clock cost only, never simulated state).
	t.tlbFlush()
	return nil
}

// Munmap releases the exact region previously returned by Mmap,
// returning its resident frames to the kernel (colored frames rejoin
// their color lists, uncolored frames the buddy allocator).
//
// The region is found by binary search and retired in place as a
// tombstone; once more than half the entries are tombstones, one
// compaction pass drops them all, so removal is amortized O(1).
func (t *Task) Munmap(va, length uint64) error {
	p := t.proc
	pages := (length + phys.PageSize - 1) / phys.PageSize
	end := va + pages*phys.PageSize
	i := p.findRegion(va)
	if i < 0 || p.regions[i].start != va || p.regions[i].end != end || p.regions[i].owner == nil {
		return fmt.Errorf("%w: munmap of unmapped region [%#x, %#x)", ErrSegfault, va, end)
	}
	p.regions[i].owner = nil
	if p.dead++; 2*p.dead > len(p.regions) {
		p.compactRegions()
	}
	for vp := va >> phys.PageShift; vp < end>>phys.PageShift; vp++ {
		if f, ok := p.pt.Lookup(vp); ok {
			p.pt.Delete(vp)
			p.shootdownPage(vp)
			p.k.freeFrame(f)
		}
	}
	return nil
}

// Translate resolves va to a physical address for an access by this
// task, faulting in a frame on first touch. The returned cost is the
// simulated fault overhead (0 when the page was already resident).
//
// A TLB hit bypasses both the region check and the page table: an
// entry can only exist while its mapping does (shootdowns on munmap,
// migrate and recolor keep it that way), and a hit costs the same
// simulated time (zero) as a resident page-table walk, so the fast
// path changes no simulated outcome.
func (t *Task) Translate(va uint64) (phys.Addr, clock.Dur, error) {
	p := t.proc
	vp := va >> phys.PageShift
	if e := &t.tlb[vp&(TLBEntries-1)]; e.vp == vp {
		p.k.stats.TLBHits++
		return e.frame.Base() + phys.Addr(phys.Offset(phys.Addr(va))), 0, nil
	}
	p.k.stats.TLBMisses++
	if !p.mapped(va) {
		return 0, 0, fmt.Errorf("%w: address %#x", ErrSegfault, va)
	}
	if f, ok := p.pt.Lookup(vp); ok {
		t.tlbInsert(vp, f)
		return f.Base() + phys.Addr(phys.Offset(phys.Addr(va))), 0, nil
	}
	f, cost, rung, err := p.k.allocPagesFor(t)
	if err != nil {
		return 0, cost, err
	}
	p.pt.Insert(vp, f)
	if rung != RungNone {
		p.k.registerLoan(f, t, vp, rung)
	}
	t.tlbInsert(vp, f)
	return f.Base() + phys.Addr(phys.Offset(phys.Addr(va))), cost, nil
}

// Resident reports whether the page holding va has a frame.
func (t *Task) Resident(va uint64) bool {
	_, ok := t.proc.pt.Lookup(va >> phys.PageShift)
	return ok
}

// FrameOfVA returns the frame backing va, if resident.
func (t *Task) FrameOfVA(va uint64) (phys.Frame, bool) {
	return t.proc.pt.Lookup(va >> phys.PageShift)
}

// wantsNode reports whether any of the task's bank colors lives on
// node n (used to skip zones during colored refill).
func (t *Task) wantsNode(m *phys.Mapping, n int) bool { return t.nodeSet[n] }

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
