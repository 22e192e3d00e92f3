package kernel

import "github.com/tintmalloc/tintmalloc/internal/phys"

// refColorTable and refTask are the colored pops as they were before
// the occupancy index: the same LIFO stacks, probed one combination
// at a time in the linear order of a combination index. FuzzColorPop
// holds colorTable.popColored to them frame by frame and cursor by
// cursor.
type refColorTable struct {
	nBank, nLLC, perNode int
	lists                [][]phys.Frame
	bankCount, llcCount  []uint64
}

type refTask struct {
	usingBank, usingLLC   bool
	bankColors, llcColors []int // sorted
	nodeOrder             []int
	comboCursor           int // combination index under MEM+LLC
	llcScan, bankScan     int
}

func newRefColorTable(nBank, nLLC, perNode int) *refColorTable {
	return &refColorTable{
		nBank: nBank, nLLC: nLLC, perNode: perNode,
		lists:     make([][]phys.Frame, nBank*nLLC),
		bankCount: make([]uint64, nBank),
		llcCount:  make([]uint64, nLLC),
	}
}

func (ct *refColorTable) push(f phys.Frame, bc, lc int) {
	i := bc*ct.nLLC + lc
	ct.lists[i] = append(ct.lists[i], f)
	ct.bankCount[bc]++
	ct.llcCount[lc]++
}

func (ct *refColorTable) popExact(bc, lc int) (phys.Frame, bool) {
	i := bc*ct.nLLC + lc
	l := ct.lists[i]
	if len(l) == 0 {
		return 0, false
	}
	f := l[len(l)-1]
	ct.lists[i] = l[:len(l)-1]
	ct.bankCount[bc]--
	ct.llcCount[lc]--
	return f, true
}

func (ct *refColorTable) popBankAny(bc, startLC int) (phys.Frame, bool) {
	if ct.bankCount[bc] == 0 {
		return 0, false
	}
	for i := 0; i < ct.nLLC; i++ {
		if f, ok := ct.popExact(bc, (startLC+i)%ct.nLLC); ok {
			return f, true
		}
	}
	return 0, false
}

func (ct *refColorTable) popLLCAny(lc int, bankOrder []int) (phys.Frame, bool) {
	if ct.llcCount[lc] == 0 {
		return 0, false
	}
	for _, bc := range bankOrder {
		if len(ct.lists[bc*ct.nLLC+lc]) > 0 {
			return ct.popExact(bc, lc)
		}
	}
	return 0, false
}

// bankScanOrder lists every bank color node group by node group in
// the task's zone order, each group rotated by bankScan.
func (t *refTask) bankScanOrder(per int) []int {
	var out []int
	off := t.bankScan % per
	for _, n := range t.nodeOrder {
		for j := 0; j < per; j++ {
			out = append(out, n*per+(off+j)%per)
		}
	}
	return out
}

func (ct *refColorTable) popColored(t *refTask, localOnly bool) (phys.Frame, bool) {
	switch {
	case t.usingBank && t.usingLLC:
		nCombos := len(t.bankColors) * len(t.llcColors)
		for i := 0; i < nCombos; i++ {
			idx := (t.comboCursor + i) % nCombos
			bc := t.bankColors[idx/len(t.llcColors)]
			lc := t.llcColors[idx%len(t.llcColors)]
			if f, ok := ct.popExact(bc, lc); ok {
				t.comboCursor = (idx + 1) % nCombos
				return f, true
			}
		}
	case t.usingBank:
		for i := 0; i < len(t.bankColors); i++ {
			idx := (t.comboCursor + i) % len(t.bankColors)
			if f, ok := ct.popBankAny(t.bankColors[idx], t.llcScan); ok {
				t.comboCursor = (idx + 1) % len(t.bankColors)
				t.llcScan = (t.llcScan + 1) % ct.nLLC
				return f, true
			}
		}
	case t.usingLLC:
		order := t.bankScanOrder(ct.perNode)
		if localOnly {
			order = order[:ct.perNode]
		}
		for i := 0; i < len(t.llcColors); i++ {
			idx := (t.comboCursor + i) % len(t.llcColors)
			if f, ok := ct.popLLCAny(t.llcColors[idx], order); ok {
				t.comboCursor = (idx + 1) % len(t.llcColors)
				t.bankScan++
				return f, true
			}
		}
	}
	return 0, false
}
