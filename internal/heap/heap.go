// Package heap implements a user-level dynamic memory allocator
// (malloc/free/calloc/realloc) on top of the simulated kernel's
// mmap pages, playing the role glibc malloc plays above TintMalloc's
// kernel policy.
//
// Each task gets its own arena (as with per-thread glibc arenas), so
// a thread's heap objects live on pages faulted in — and therefore
// colored — by that thread. Small requests are carved from size-class
// slabs of one page each; requests above HugeThreshold get dedicated
// page-granular regions. Because slabs are single pages, every heap
// allocation translates into order-0 page demand, matching the
// paper's observation that ordinary applications allocate less than
// 4 KB at a time.
package heap

import (
	"errors"
	"fmt"
	"sort"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Sentinel errors.
var (
	// ErrBadSize reports a zero or oversized request.
	ErrBadSize = errors.New("heap: invalid allocation size")
	// ErrInvalidFree reports a free of a pointer the heap never
	// returned (or already freed).
	ErrInvalidFree = errors.New("heap: invalid free")
)

// HugeThreshold is the largest size served from size-class slabs;
// bigger requests get dedicated page regions.
const HugeThreshold = 2048

// sizeClasses are the slab slot sizes in bytes.
var sizeClasses = []uint64{16, 32, 64, 128, 256, 512, 1024, 2048}

func classOf(size uint64) int {
	for i, c := range sizeClasses {
		if size <= c {
			return i
		}
	}
	return -1
}

// Stats counts allocator activity.
type Stats struct {
	Mallocs      uint64
	Frees        uint64
	SlabsMapped  uint64 // one-page slabs requested from the kernel
	SlabsTrimmed uint64 // empty slabs returned via Trim
	HugeMapped   uint64 // dedicated large regions requested
	BytesLive    uint64 // sum of class/page sizes currently allocated
	// Trim's reclaim pass outcomes: loans the kernel migrated home,
	// and page copies an injected migration fault failed (those loans
	// stay on the ledger and are retried by a later Trim or by the
	// compaction daemon).
	LoansReclaimed uint64
	ReclaimFailed  uint64
}

type allocation struct {
	class int    // size-class index, or -1 for huge
	pages uint64 // page count for huge allocations
}

// slabMeta tracks one one-page slab's occupancy for Trim.
type slabMeta struct {
	class int
	used  int // live slots
}

// Heap is a per-task arena. Not safe for concurrent use.
type Heap struct {
	task  *kernel.Task
	free  [][]uint64           // per-class free slot VAs (LIFO)
	live  blockTable           // block VA -> allocation
	slabs map[uint64]*slabMeta // slab base VA -> occupancy
	stats Stats
}

// New creates an arena that maps memory through the given task; pages
// the arena faults in inherit the task's coloring.
func New(task *kernel.Task) *Heap {
	return &Heap{
		task:  task,
		free:  make([][]uint64, len(sizeClasses)),
		live:  newBlockTable(),
		slabs: make(map[uint64]*slabMeta),
	}
}

func slabOf(va uint64) uint64 { return va &^ (phys.PageSize - 1) }

// Task returns the owning task.
func (h *Heap) Task() *kernel.Task { return h.task }

// Stats returns a copy of the counters.
func (h *Heap) Stats() Stats { return h.stats }

// Malloc allocates size bytes and returns the block's virtual
// address.
func (h *Heap) Malloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("%w: zero", ErrBadSize)
	}
	h.stats.Mallocs++
	if size > HugeThreshold {
		pages := (size + phys.PageSize - 1) / phys.PageSize
		va, err := h.task.Mmap(0, pages*phys.PageSize, 0)
		if err != nil {
			return 0, err
		}
		h.stats.HugeMapped++
		h.stats.BytesLive += pages * phys.PageSize
		h.live.put(va, allocation{class: -1, pages: pages})
		return va, nil
	}
	cls := classOf(size)
	if len(h.free[cls]) == 0 {
		if err := h.refill(cls); err != nil {
			return 0, err
		}
	}
	l := h.free[cls]
	va := l[len(l)-1]
	h.free[cls] = l[:len(l)-1]
	h.live.put(va, allocation{class: cls})
	h.slabs[slabOf(va)].used++
	h.stats.BytesLive += sizeClasses[cls]
	return va, nil
}

// refill maps one fresh page and carves it into class slots.
func (h *Heap) refill(cls int) error {
	va, err := h.task.Mmap(0, phys.PageSize, 0)
	if err != nil {
		return err
	}
	h.stats.SlabsMapped++
	h.slabs[va] = &slabMeta{class: cls}
	slot := sizeClasses[cls]
	// Push in reverse so allocation proceeds from the page start.
	for off := phys.PageSize - slot; ; off -= slot {
		h.free[cls] = append(h.free[cls], va+off)
		if off == 0 {
			break
		}
	}
	return nil
}

// Calloc allocates n*size zero-initialized bytes. (The simulation
// carries no data, so zeroing is a semantic no-op; the timing of the
// touch is up to the workload.)
func (h *Heap) Calloc(n, size uint64) (uint64, error) {
	if n != 0 && size != 0 && n > ^uint64(0)/size {
		return 0, fmt.Errorf("%w: calloc overflow", ErrBadSize)
	}
	return h.Malloc(n * size)
}

// Realloc resizes an allocation, returning the (possibly moved)
// block. Realloc(va, 0) frees the block and returns 0 (C11's
// implementation-defined corner, pinned here to the free-and-NULL
// behaviour) rather than surfacing Malloc's ErrBadSize.
func (h *Heap) Realloc(va uint64, size uint64) (uint64, error) {
	if va == 0 {
		return h.Malloc(size)
	}
	if size == 0 {
		return 0, h.Free(va)
	}
	a, ok := h.live.get(va)
	if !ok {
		return 0, fmt.Errorf("%w: realloc of %#x", ErrInvalidFree, va)
	}
	// Still fits in place?
	if a.class >= 0 && size <= sizeClasses[a.class] {
		return va, nil
	}
	if a.class < 0 && size > HugeThreshold && (size+phys.PageSize-1)/phys.PageSize == a.pages {
		return va, nil
	}
	nva, err := h.Malloc(size)
	if err != nil {
		return 0, err
	}
	if err := h.Free(va); err != nil {
		// Unwind the fresh block: returning the error while keeping
		// nva live would leak it, since the caller only ever learns
		// about one block.
		if uerr := h.Free(nva); uerr != nil {
			return 0, fmt.Errorf("%w (and unwinding the new block failed: %v)", err, uerr)
		}
		return 0, err
	}
	return nva, nil
}

// Free releases a block previously returned by Malloc.
func (h *Heap) Free(va uint64) error {
	a, ok := h.live.get(va)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrInvalidFree, va)
	}
	h.live.del(va)
	h.stats.Frees++
	if a.class < 0 {
		h.stats.BytesLive -= a.pages * phys.PageSize
		return h.task.Munmap(va, a.pages*phys.PageSize)
	}
	h.stats.BytesLive -= sizeClasses[a.class]
	h.free[a.class] = append(h.free[a.class], va)
	h.slabs[slabOf(va)].used--
	return nil
}

// Trim returns fully-free slabs to the kernel (glibc's
// malloc_trim analogue): their slots leave the class free lists and
// their pages are unmapped, rejoining the colored free lists or
// buddy zones. Returns the number of released slabs.
func (h *Heap) Trim() (released int, err error) {
	empty := map[uint64]bool{}
	for base, meta := range h.slabs {
		if meta.used == 0 {
			empty[base] = true
		}
	}
	if len(empty) == 0 {
		return 0, nil
	}
	// Drop the empty slabs' slots from the class free lists.
	for cls := range h.free {
		kept := h.free[cls][:0]
		for _, va := range h.free[cls] {
			if !empty[slabOf(va)] {
				kept = append(kept, va)
			}
		}
		h.free[cls] = kept
	}
	// Unmap in ascending address order: frames rejoin the colored
	// free lists (or buddy) in release order, so iterating the map
	// directly would make subsequent placements depend on Go's
	// randomized map order and break run reproducibility.
	bases := make([]uint64, 0, len(empty))
	for base := range empty {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		if err := h.task.Munmap(base, phys.PageSize); err != nil {
			return released, err
		}
		delete(h.slabs, base)
		released++
	}
	h.stats.SlabsTrimmed += uint64(released)
	// Returning slabs is the signal that pressure subsided: give the
	// kernel the chance to migrate this task's degradation-ladder
	// loans back onto their preferred placement (DESIGN.md Sec. 10).
	// Both outcomes are recorded: silently discarding the failure
	// count would hide a faulted reclaim from the stats layer.
	if released > 0 {
		moved, failed := h.task.ReclaimLoans()
		h.stats.LoansReclaimed += uint64(moved)
		h.stats.ReclaimFailed += uint64(failed)
	}
	return released, nil
}

// SizeOf returns the usable size of a live allocation.
func (h *Heap) SizeOf(va uint64) (uint64, bool) {
	a, ok := h.live.get(va)
	if !ok {
		return 0, false
	}
	if a.class < 0 {
		return a.pages * phys.PageSize, true
	}
	return sizeClasses[a.class], true
}

// LiveAllocations returns the number of outstanding blocks.
func (h *Heap) LiveAllocations() int { return h.live.n }
