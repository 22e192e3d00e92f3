package kernel

import (
	"math/bits"
	"sync/atomic"
)

// Rows is the occupancy index of a store of colored free lists over a
// contiguous range of bank colors: one row of ceil(nLLC/64) words per
// bank color, and bit lc%64 of word lc/64 of bank color bc's row set
// exactly while list (bc, lc) holds pages. The kernel's color table
// keeps one over every bank color, each serve shard one over its
// node's; an LLC color set is a row mask in the same layout.
//
// The finders (Next, Borrow, First) are the colored pops' walks,
// written once for both stores: each returns the list to pop and
// never pops it. Bits are written with atomic Or/And and read with
// atomic loads, so a serve shard can walk its rows under no lock
// while other goroutines, each under its bucket's stripe, pop and
// park; a list a finder returns may then be empty by the time its
// caller locks it, and the caller finds again (DESIGN.md Sec. 11.2).
type Rows struct {
	bankLo  int      // the first bank color of the range
	perNode int      // bank colors per node; node n owns [n*perNode, (n+1)*perNode)
	nLLC    int      // LLC colors
	words   int      // words per row: ceil(nLLC/64)
	occ     []uint64 // [(bc-bankLo)*words+lc/64] bit lc%64: list (bc, lc) holds pages
	allLLC  []uint64 // a row mask with every LLC color's bit set
}

// NewRows returns empty rows over the nBank bank colors from bankLo,
// on a machine with perNode bank colors per node and nLLC LLC colors.
func NewRows(bankLo, nBank, perNode, nLLC int) Rows {
	r := Rows{bankLo: bankLo, perNode: perNode, nLLC: nLLC, words: (nLLC + 63) / 64}
	r.occ = make([]uint64, nBank*r.words)
	r.allLLC = make([]uint64, r.words)
	for lc := 0; lc < nLLC; lc++ {
		r.allLLC[lc>>6] |= 1 << (lc & 63)
	}
	return r
}

// Mask returns the LLC colors lcs as a row mask.
func (r *Rows) Mask(lcs []int) []uint64 {
	mask := make([]uint64, r.words)
	for _, lc := range lcs {
		mask[lc>>6] |= 1 << (lc & 63)
	}
	return mask
}

// Set marks list (bc, lc) occupied. Stores call it as the list turns
// non-empty.
func (r *Rows) Set(bc, lc int) {
	atomic.OrUint64(&r.occ[(bc-r.bankLo)*r.words+lc>>6], 1<<(lc&63))
}

// Clear marks list (bc, lc) empty. Stores call it as the list empties.
func (r *Rows) Clear(bc, lc int) {
	atomic.AndUint64(&r.occ[(bc-r.bankLo)*r.words+lc>>6], ^uint64(1<<(lc&63)))
}

// Occupied reads list (bc, lc)'s bit.
func (r *Rows) Occupied(bc, lc int) bool {
	return atomic.LoadUint64(&r.occ[(bc-r.bankLo)*r.words+lc>>6])&(1<<(lc&63)) != 0
}

// Next returns the next occupied list of a claim on bank colors banks
// (those inside the rows' range, ascending) and LLC colors llcs
// (ascending; mask is them as a row mask) from cursor (i, j), and the
// index at, into banks or llcs, of the color the walk found it under;
// bc is -1 when no list of the claim is occupied. The claim colors on
// bank colors when banks is non-empty and on LLC colors when llcs is.
// The walks visit lists in the order of a probe per combination, but
// read one masked row per bank color, or one bit per bank color of an
// LLC column (DESIGN.md Sec. 14.2):
//
//   - MEM+LLC: the combinations (banks[b], lc), lc in mask, in
//     ascending LLC color within ascending b from (banks[i], j),
//     wrapping once: the start row from j, every other row, then the
//     start row again below j.
//   - bank-only: the rows of banks from banks[i], wrapping, each
//     scanned from LLC color j and wrapping.
//   - LLC-only: the columns of llcs from llcs[i], wrapping, each over
//     the bank colors of every node in nodes in turn, each node's
//     group rotated to start at offset j.
//
// The claim's slices are read plainly and must not change during the
// walk.
func (r *Rows) Next(banks, llcs []int, mask []uint64, nodes []int, i, j int) (at, bc, lc int) {
	switch {
	case len(banks) > 0 && len(llcs) > 0:
		lo, hi := j, r.nLLC
		for left := len(banks); left >= 0; left-- {
			if left == 0 {
				hi = j
			}
			if lc := r.first(banks[i], mask, lo, hi); lc >= 0 {
				return i, banks[i], lc
			}
			lo = 0
			if i++; i == len(banks) {
				i = 0
			}
		}
	case len(banks) > 0:
		for range banks {
			if lc := r.anyFrom(banks[i], j); lc >= 0 {
				return i, banks[i], lc
			}
			if i++; i == len(banks) {
				i = 0
			}
		}
	case len(llcs) > 0:
		for range llcs {
			lc := llcs[i]
			for _, n := range nodes {
				lo := n * r.perNode
				for k := j; k < r.perNode; k++ {
					if r.Occupied(lo+k, lc) {
						return i, lo + k, lc
					}
				}
				for k := 0; k < j; k++ {
					if r.Occupied(lo+k, lc) {
						return i, lo + k, lc
					}
				}
			}
			if i++; i == len(llcs) {
				i = 0
			}
		}
	}
	return -1, -1, -1
}

// Borrow returns the list the ladder's borrow-color rung pops on node
// for a claim with LLC row mask mask, or bc -1. It lends only on the
// axis the claim colors on, so no other claim's guarantee on that
// axis breaks. A claim on bank colors (bank true) takes a bank color
// no claim holds: first under one of its own LLC colors (keeping that
// half of the guarantee), every such row in ascending bank order, and
// then under any LLC color, each row scanned from LLC color from and
// wrapping. An LLC-only claim takes the first LLC color no claim
// holds from the node's bank colors in ascending order. bankClaims
// and llcClaims count the claims holding each color.
func (r *Rows) Borrow(node int, bank bool, mask []uint64, from int, bankClaims, llcClaims []atomic.Int32) (bc, lc int) {
	lo, hi := node*r.perNode, (node+1)*r.perNode
	if !bank {
		for lc := 0; lc < r.nLLC; lc++ {
			if llcClaims[lc].Load() != 0 {
				continue
			}
			for bc := lo; bc < hi; bc++ {
				if r.Occupied(bc, lc) {
					return bc, lc
				}
			}
		}
		return -1, -1
	}
	for bc := lo; bc < hi; bc++ {
		if bankClaims[bc].Load() == 0 {
			if lc := r.first(bc, mask, 0, r.nLLC); lc >= 0 {
				return bc, lc
			}
		}
	}
	for bc := lo; bc < hi; bc++ {
		if bankClaims[bc].Load() == 0 {
			if lc := r.anyFrom(bc, from); lc >= 0 {
				return bc, lc
			}
		}
	}
	return -1, -1
}

// First returns node's first occupied list in ascending (bank color,
// LLC color) order, or bc -1.
func (r *Rows) First(node int) (bc, lc int) {
	for bc := node * r.perNode; bc < (node+1)*r.perNode; bc++ {
		if lc := r.first(bc, r.allLLC, 0, r.nLLC); lc >= 0 {
			return bc, lc
		}
	}
	return -1, -1
}

// anyFrom returns the first occupied LLC color of bank color bc's row
// at or after from, wrapping, or -1.
func (r *Rows) anyFrom(bc, from int) int {
	if lc := r.first(bc, r.allLLC, from, r.nLLC); lc >= 0 {
		return lc
	}
	return r.first(bc, r.allLLC, 0, from)
}

// first returns the lowest LLC color in [lo, hi) set both in bank
// color bc's row and in mask, or -1: the one row scan of every walk.
func (r *Rows) first(bc int, mask []uint64, lo, hi int) int {
	if lo >= hi {
		return -1
	}
	row := r.occ[(bc-r.bankLo)*r.words:]
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
