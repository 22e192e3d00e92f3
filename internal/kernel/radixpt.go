package kernel

import "github.com/tintmalloc/tintmalloc/internal/phys"

// RadixPT is the kernel's page table: a two-level radix array over
// virtual page numbers. The root is a dense slice of leaf pointers
// covering the chunk range [lo, lo+len(leaves)) where a chunk is
// vpage >> ptLeafBits; each leaf is a flat array of ptLeafSize frame
// entries. Lookup is two array indexes and costs no hashing, no
// pointer chasing beyond one leaf dereference, and no allocation —
// the access pattern the Translate fast path wants. Its reference is
// the plain map model of TestRadixPTDifferential and FuzzRadixPT.
//
// The root is biased: it covers only the chunk span actually mapped,
// growing amortized-O(1) at either end on insert. Under the kernel's
// bump VA allocation (mmap hands out addresses upward from vaBase)
// the span stays exactly as large as the address space in use; a
// process that maps both a very low and a very high vpage pays
// 8 bytes of root per 2 MiB of span between them — the documented
// cost of keeping the root a flat array instead of a hash.
//
// Entries store frame+1 so the zero value means "not present" and
// fresh leaves need no fill pass (frame 0 is a valid frame). A leaf
// whose live-entry count drops to zero is unlinked from the root, so
// munmap of a fully-mapped region releases its page-table memory.
type RadixPT struct {
	leaves []*ptLeaf
	lo     uint64 // chunk index of leaves[0]
	n      int    // live entries across all leaves
}

const (
	// ptLeafBits is log2 of the entries per leaf: 512 entries cover
	// 2 MiB of virtual address space per leaf, matching a hardware
	// PTE page, and keep one leaf at 4 KiB — one host page.
	ptLeafBits = 9
	ptLeafSize = 1 << ptLeafBits
	ptLeafMask = ptLeafSize - 1
)

type ptLeaf struct {
	frames [ptLeafSize]phys.Frame // frame+1; 0 = not present
	live   int
}

// Lookup returns the frame mapped at vp, if present.
func (r *RadixPT) Lookup(vp uint64) (phys.Frame, bool) {
	c := vp >> ptLeafBits
	if c < r.lo || c-r.lo >= uint64(len(r.leaves)) {
		return 0, false
	}
	lf := r.leaves[c-r.lo]
	if lf == nil {
		return 0, false
	}
	e := lf.frames[vp&ptLeafMask]
	return e - 1, e != 0
}

// Insert maps vp to f, replacing any existing mapping.
func (r *RadixPT) Insert(vp uint64, f phys.Frame) {
	c := vp >> ptLeafBits
	switch {
	case len(r.leaves) == 0:
		r.leaves = make([]*ptLeaf, 1)
		r.lo = c
	case c < r.lo:
		// Grow downward with headroom: the shift is O(span), so
		// doubling the extension keeps repeated low inserts amortized.
		// The headroom is capped at r.lo — the bias cannot go below
		// chunk 0, and the required extension r.lo-c never exceeds it.
		ext := r.lo - c
		if ext < uint64(len(r.leaves)) {
			ext = uint64(len(r.leaves))
		}
		if ext > r.lo {
			ext = r.lo
		}
		grown := make([]*ptLeaf, uint64(len(r.leaves))+ext)
		copy(grown[ext:], r.leaves)
		r.leaves = grown
		r.lo -= ext
	case c-r.lo >= uint64(len(r.leaves)):
		// Grow upward; append's doubling provides the amortization.
		need := c - r.lo + 1
		for uint64(len(r.leaves)) < need {
			r.leaves = append(r.leaves, nil)
		}
	}
	i := c - r.lo
	lf := r.leaves[i]
	if lf == nil {
		lf = new(ptLeaf)
		r.leaves[i] = lf
	}
	slot := &lf.frames[vp&ptLeafMask]
	if *slot == 0 {
		lf.live++
		r.n++
	}
	*slot = f + 1
}

// Delete removes the mapping at vp, reporting whether one existed.
// The leaf is unlinked once its last entry dies.
func (r *RadixPT) Delete(vp uint64) bool {
	c := vp >> ptLeafBits
	if c < r.lo || c-r.lo >= uint64(len(r.leaves)) {
		return false
	}
	lf := r.leaves[c-r.lo]
	if lf == nil || lf.frames[vp&ptLeafMask] == 0 {
		return false
	}
	lf.frames[vp&ptLeafMask] = 0
	lf.live--
	r.n--
	if lf.live == 0 {
		r.leaves[c-r.lo] = nil
	}
	return true
}

// Len returns the number of live mappings.
func (r *RadixPT) Len() int { return r.n }

// Leaves returns the number of allocated leaf nodes (tests use it to
// verify whole-leaf munmap releases page-table memory).
func (r *RadixPT) Leaves() int {
	n := 0
	for _, lf := range r.leaves {
		if lf != nil {
			n++
		}
	}
	return n
}

// Visit calls fn for every mapping in ascending vpage order. The
// order is structural — root chunks ascend, entries within a leaf
// ascend — so it is deterministic with no sorting pass.
func (r *RadixPT) Visit(fn func(vp uint64, f phys.Frame)) {
	for i, lf := range r.leaves {
		if lf == nil {
			continue
		}
		base := (r.lo + uint64(i)) << ptLeafBits
		for j := range lf.frames {
			if e := lf.frames[j]; e != 0 {
				fn(base+uint64(j), e-1)
			}
		}
	}
}
