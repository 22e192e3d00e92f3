package kernel

import (
	"math/bits"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// colorTable holds the kernel's colored free lists: a matrix of
// per-(bank color, LLC color) page stacks (the paper's
// color_list[MEM_ID][cache_ID], 128x32 on the Opteron platform),
// plus an occupancy index and per-LLC-color counts so "any LLC color
// of bank bc" and "any bank color of LLC lc" queries stay cheap.
//
// The matrix is flattened row-major into one slice-of-stacks indexed
// bc*nLLC+lc: a probe is a single dependent load instead of the two a
// [][][]Frame layout costs.
//
// The occupancy index has one row of ceil(nLLC/64) words per bank
// color: bit lc%64 of occ[bc*words+lc/64] is set exactly while list
// (bc, lc) is non-empty. Only push and popExact change a list's
// length from or to zero, so only they touch a bit. A task's LLC
// colors are a bitmap in the same row layout (Task.llcMask), so
// "the first owned, non-empty list of bank bc at or after LLC color
// lo" is an AND and a trailing-zero count per word: pops never probe
// an empty list (DESIGN.md Sec. 14.2).
type colorTable struct {
	nBank, nLLC int
	words       int            // occupancy words per bank row: ceil(nLLC/64)
	perNode     int            // bank colors per node; node n owns [n*perNode, (n+1)*perNode)
	lists       [][]phys.Frame // [bc*nLLC+lc] LIFO stacks
	occ         []uint64       // [bc*words+lc/64] bit lc%64: list (bc, lc) is non-empty
	allLLC      []uint64       // a row mask with every LLC color's bit set
	llcCount    []uint64       // frames parked per LLC color
	total       uint64
}

func newColorTable(nBank, nLLC, perNode int) *colorTable {
	words := (nLLC + 63) / 64
	all := make([]uint64, words)
	for lc := 0; lc < nLLC; lc++ {
		all[lc>>6] |= 1 << (lc & 63)
	}
	return &colorTable{
		nBank:    nBank,
		nLLC:     nLLC,
		words:    words,
		perNode:  perNode,
		lists:    make([][]phys.Frame, nBank*nLLC),
		occ:      make([]uint64, nBank*words),
		allLLC:   all,
		llcCount: make([]uint64, nLLC),
	}
}

// list returns the (bc, lc) stack.
func (ct *colorTable) list(bc, lc int) []phys.Frame {
	return ct.lists[bc*ct.nLLC+lc]
}

// occupied reads list (bc, lc)'s occupancy bit.
func (ct *colorTable) occupied(bc, lc int) bool {
	return ct.occ[bc*ct.words+lc>>6]&(1<<(lc&63)) != 0
}

func (ct *colorTable) push(f phys.Frame, bc, lc int) {
	i := bc*ct.nLLC + lc
	if len(ct.lists[i]) == 0 {
		ct.occ[bc*ct.words+lc>>6] |= 1 << (lc & 63)
	}
	ct.lists[i] = append(ct.lists[i], f)
	ct.llcCount[lc]++
	ct.total++
}

// popExact pops a page of exactly (bc, lc).
func (ct *colorTable) popExact(bc, lc int) (phys.Frame, bool) {
	i := bc*ct.nLLC + lc
	l := ct.lists[i]
	if len(l) == 0 {
		return 0, false
	}
	f := l[len(l)-1]
	ct.lists[i] = l[:len(l)-1]
	if len(l) == 1 {
		ct.occ[bc*ct.words+lc>>6] &^= 1 << (lc & 63)
	}
	ct.llcCount[lc]--
	ct.total--
	return f, true
}

// first returns the lowest LLC color lc in [lo, hi) whose list
// (bc, lc) is non-empty and whose bit is set in mask (a row-layout
// LLC bitmap), or -1 if there is none.
func (ct *colorTable) first(bc int, mask []uint64, lo, hi int) int {
	return FirstInRow(ct.occ[bc*ct.words:(bc+1)*ct.words], mask, lo, hi)
}

// FirstInRow returns the lowest bit index in [lo, hi) set in both row
// and mask, or -1 if there is none. Both are bitmaps in the occupancy
// row layout (bit i is bit i%64 of word i/64): row is one bank color's
// occupancy row, of the kernel's color table or of a serve shard, and
// mask is an LLC color set. It is the one row scan of both stores.
//
// Row words are read with atomic loads, plain loads on amd64, so a
// serve shard can scan a row that other goroutines' pops and parks
// update; mask is read plainly and must not change during the scan.
func FirstInRow(row, mask []uint64, lo, hi int) int {
	if lo >= hi {
		return -1
	}
	// The bits of [lo, hi) in its first and its last word.
	first, last := lo>>6, (hi-1)>>6
	lm, hm := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-(hi-1)&63)
	if first == last { // every range when nLLC <= 64
		if m := atomic.LoadUint64(&row[first]) & mask[first] & lm & hm; m != 0 {
			return first<<6 | bits.TrailingZeros64(m)
		}
		return -1
	}
	for w, m := first, lm; w <= last; w, m = w+1, ^uint64(0) {
		if w == last {
			m &= hm
		}
		if m &= atomic.LoadUint64(&row[w]) & mask[w]; m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// popBankAny pops a page of bank color bc with any LLC color,
// scanning the LLC columns from startLC, wrapping, so successive
// requests rotate across colors instead of clustering on column 0.
func (ct *colorTable) popBankAny(bc, startLC int) (phys.Frame, bool) {
	lc := ct.first(bc, ct.allLLC, startLC, ct.nLLC)
	if lc < 0 {
		if lc = ct.first(bc, ct.allLLC, 0, startLC); lc < 0 {
			return 0, false
		}
	}
	return ct.popExact(bc, lc)
}

// popLLCAny pops a page of LLC color lc with any bank color. The
// bank colors of each node in nodes are scanned in turn, each node's
// group rotated to start at offset off, so LLC-only coloring keeps
// the default policy's node locality and spreads pages across banks.
func (ct *colorTable) popLLCAny(lc int, nodes []int, off int) (phys.Frame, bool) {
	if ct.llcCount[lc] == 0 {
		return 0, false
	}
	for _, n := range nodes {
		lo := n * ct.perNode
		for j := off; j < ct.perNode; j++ {
			if ct.occupied(lo+j, lc) {
				return ct.popExact(lo+j, lc)
			}
		}
		for j := 0; j < off; j++ {
			if ct.occupied(lo+j, lc) {
				return ct.popExact(lo+j, lc)
			}
		}
	}
	return 0, false
}

// popColored pops a free page matching t's colors, rotating through
// the task's owned colors so heap pages spread evenly across them.
// localOnly restricts the LLC-only path to bank columns of the
// task's local node (bank-constrained paths are node-bound already).
//
// The MEM+LLC path visits the task's combinations in cursor order —
// bank colors ascending, and within each bank its LLC colors
// ascending, starting at the cursor and wrapping once — exactly the
// order of a linear scan over the combination index, but one masked
// occupancy row per bank color instead of one probe per combination.
func (ct *colorTable) popColored(t *Task, localOnly bool) (phys.Frame, bool) {
	switch {
	case t.usingBank && t.usingLLC:
		nb := len(t.bankColors)
		bi, lo := t.comboCursor, t.comboLLC
		// nb+1 row visits: the cursor's row from lo, every other row,
		// then the cursor's row again below lo.
		for left := nb; left >= 0; left-- {
			hi := ct.nLLC
			if left == 0 {
				hi = t.comboLLC
			}
			if lc := ct.first(t.bankColors[bi], t.llcMask, lo, hi); lc >= 0 {
				f, _ := ct.popExact(t.bankColors[bi], lc)
				t.advanceCombo(bi, lc)
				return f, true
			}
			lo = 0
			if bi++; bi == nb {
				bi = 0
			}
		}
	case t.usingBank:
		nb := len(t.bankColors)
		bi := t.comboCursor
		for i := 0; i < nb; i++ {
			f, ok := ct.popBankAny(t.bankColors[bi], t.llcScan)
			if bi++; bi == nb {
				bi = 0
			}
			if ok {
				t.comboCursor = bi
				if t.llcScan++; t.llcScan == ct.nLLC {
					t.llcScan = 0
				}
				return f, true
			}
		}
	case t.usingLLC:
		nodes := t.nodeOrder
		if localOnly {
			nodes = nodes[:1]
		}
		off := t.bankScan % ct.perNode
		nl := len(t.llcColors)
		li := t.comboCursor
		for i := 0; i < nl; i++ {
			f, ok := ct.popLLCAny(t.llcColors[li], nodes, off)
			if li++; li == nl {
				li = 0
			}
			if ok {
				t.comboCursor = li
				t.bankScan++
				return f, true
			}
		}
	}
	return 0, false
}
