package kernel

import "github.com/tintmalloc/tintmalloc/internal/phys"

// Simulated per-task TLB: a direct-mapped translation cache in front
// of the page table in Task.Translate. The TLB is a pure fast path —
// a hit costs the same simulated time (zero) as a resident page-table
// lookup, so it never changes a simulated outcome, only wall-clock
// cost. Coherence is maintained by explicit shootdowns: Munmap and
// Migrate invalidate the moved vpages in every task of the process
// (the page table is shared), and a color-set change flushes the
// recoloring task's TLB outright, the conservative model of a real
// recolor-triggered shootdown. The page table is the TLB's reference:
// the invariant auditor (check 4) compares every live entry with it,
// and TestTLBShootdownDifferential compares every translation with it
// after each touch.

// TLBEntries is the number of entries in each task's simulated TLB —
// sized like the 1024-entry L2 data TLB of the Opteron 6128. It must
// be a power of two (the direct-mapped index is vp & (TLBEntries-1)).
const TLBEntries = 1024

// tlbEntry caches one vpage -> frame translation. vp == 0 marks an
// empty slot: mmap hands out virtual addresses starting at vaBase
// (1 << 36), so no mappable vpage is ever zero.
type tlbEntry struct {
	vp    uint64
	frame phys.Frame
}

// tlbInsert caches the translation vp -> f, displacing whatever
// shared its slot.
func (t *Task) tlbInsert(vp uint64, f phys.Frame) {
	t.tlb[vp&(TLBEntries-1)] = tlbEntry{vp: vp, frame: f}
}

// tlbInvalidate drops the cached translation for vp, if present.
func (t *Task) tlbInvalidate(vp uint64) {
	if e := &t.tlb[vp&(TLBEntries-1)]; e.vp == vp {
		*e = tlbEntry{}
	}
}

// tlbFlush drops every cached translation of the task.
func (t *Task) tlbFlush() {
	clear(t.tlb)
	t.proc.k.stats.TLBShootdowns++
}

// shootdownPage invalidates vp in every task of the process — the
// page table is shared, so any task may have the stale translation
// cached.
func (p *Process) shootdownPage(vp uint64) {
	for _, t := range p.tasks {
		t.tlbInvalidate(vp)
	}
	p.k.stats.TLBShootdowns++
}
