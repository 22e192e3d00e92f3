package kernel

import "github.com/tintmalloc/tintmalloc/internal/phys"

// colorTable holds the kernel's colored free lists: a matrix of
// per-(bank color, LLC color) page stacks (the paper's
// color_list[MEM_ID][cache_ID], 128x32 on the Opteron platform),
// over the occupancy rows (Rows) of every bank color, so pops never
// probe an empty list (DESIGN.md Sec. 14.2).
//
// The matrix is flattened row-major into one slice-of-stacks indexed
// bc*nLLC+lc: a probe is a single dependent load instead of the two a
// [][][]Frame layout costs. Only push and popExact change a list's
// length from or to zero, so only they touch a bit. A task's LLC
// colors are a row mask (Task.llcMask).
type colorTable struct {
	Rows
	nBank int
	lists [][]phys.Frame // [bc*nLLC+lc] LIFO stacks
	total uint64
}

func newColorTable(nBank, nLLC, perNode int) *colorTable {
	return &colorTable{
		Rows:  NewRows(0, nBank, perNode, nLLC),
		nBank: nBank,
		lists: make([][]phys.Frame, nBank*nLLC),
	}
}

// list returns the (bc, lc) stack.
func (ct *colorTable) list(bc, lc int) []phys.Frame {
	return ct.lists[bc*ct.nLLC+lc]
}

func (ct *colorTable) push(f phys.Frame, bc, lc int) {
	i := bc*ct.nLLC + lc
	if len(ct.lists[i]) == 0 {
		ct.Set(bc, lc)
	}
	ct.lists[i] = append(ct.lists[i], f)
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
		ct.Clear(bc, lc)
	}
	ct.total--
	return f, true
}

// popColored pops a free page matching t's colors: the list Rows.Next
// finds from the task's cursors, which then move past it, so heap
// pages rotate evenly across the owned colors. localOnly restricts
// the LLC-only walk to the bank colors of the task's local node
// (bank-constrained walks are node-bound already).
func (ct *colorTable) popColored(t *Task, localOnly bool) (phys.Frame, bool) {
	nodes := t.nodeOrder
	if localOnly {
		nodes = nodes[:1]
	}
	var j int
	switch {
	case t.usingBank && t.usingLLC:
		j = t.comboLLC
	case t.usingBank:
		j = t.llcScan
	default:
		j = t.bankScan % ct.perNode
	}
	at, bc, lc := ct.Next(t.bankColors, t.llcColors, t.llcMask, nodes, t.comboCursor, j)
	if bc < 0 {
		return 0, false
	}
	switch {
	case t.usingBank && t.usingLLC:
		t.advanceCombo(at, lc)
	case t.usingBank:
		if t.comboCursor = at + 1; t.comboCursor == len(t.bankColors) {
			t.comboCursor = 0
		}
		if t.llcScan++; t.llcScan == ct.nLLC {
			t.llcScan = 0
		}
	default:
		if t.comboCursor = at + 1; t.comboCursor == len(t.llcColors) {
			t.comboCursor = 0
		}
		t.bankScan++
	}
	return ct.popExact(bc, lc)
}
