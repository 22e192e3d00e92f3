package kernel

import (
	"sort"

	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Introspection accessors for the invariant auditor
// (internal/invariant). They expose read-only views of the kernel's
// frame bookkeeping — color lists, the colored-frame ownership marks,
// buddy free blocks, page tables and TLBs — so tests can
// cross-check every layer's view of physical memory against the
// others without reaching into unexported state. None of them are
// used on simulation hot paths.

// VisitColorLists calls fn for every color list, in ascending (bank
// color, LLC color) order: its parked frames, bottom of the stack
// first, and its occupancy bit. The slice is the list itself; fn must
// not change it.
func (k *Kernel) VisitColorLists(fn func(bankColor, llcColor int, frames []phys.Frame, occupied bool)) {
	for bc := 0; bc < k.colors.nBank; bc++ {
		for lc := 0; lc < k.colors.nLLC; lc++ {
			fn(bc, lc, k.colors.list(bc, lc), k.colors.Occupied(bc, lc))
		}
	}
}

// ColorClaims returns how many tasks the kernel counts as holding
// bank color c (bank true) or LLC color c (bank false) — the counts
// the degradation ladder reads to find unclaimed colors.
func (k *Kernel) ColorClaims(bank bool, c int) int {
	if bank {
		return int(k.bankClaims[c].Load())
	}
	return int(k.llcClaims[c].Load())
}

// VisitZoneFree calls fn for every free buddy block of node n's zone,
// with head expressed as a global frame number.
func (k *Kernel) VisitZoneFree(n int, fn func(head phys.Frame, order int)) {
	base := k.zoneLo[n]
	k.zones[n].VisitFreeBlocks(func(head phys.Frame, order int) {
		fn(base+head, order)
	})
}

// FrameColored reports whether f is owned by the colored allocator —
// parked on a color list or handed out through the colored path (such
// frames rejoin their color list on free, never the buddy).
func (k *Kernel) FrameColored(f phys.Frame) bool { return k.coloredFrame[f] }

// FrameColors returns the (bank, LLC) color of f from the kernel's
// dense lookup tables — the values the colored free lists key on.
func (k *Kernel) FrameColors(f phys.Frame) (bankColor, llcColor int) {
	return int(k.frameBank[f]), int(k.frameLLC[f])
}

// Processes returns the kernel's address spaces in creation order.
func (k *Kernel) Processes() []*Process { return append([]*Process(nil), k.procs...) }

// VisitPages calls fn for every resident page of p in ascending
// virtual-page order. The order is structural — RadixPT.Visit walks
// root chunks and leaf slots in ascending index order — so it needs
// no sorting pass; the radix differential tests check it.
func (p *Process) VisitPages(fn func(vpage uint64, f phys.Frame)) { p.pt.Visit(fn) }

// VisitRegions calls fn for every live mapped region of p in
// ascending start order: its page-aligned range [start, end) and the
// task whose Mmap created it. Tombstones left by Munmap are skipped.
func (p *Process) VisitRegions(fn func(start, end uint64, owner *Task)) {
	for _, r := range p.regions {
		if r.owner != nil {
			fn(r.start, r.end, r.owner)
		}
	}
}

// Loans returns the number of outstanding degradation-ladder loans
// (frames handed out below preferred placement and not yet reclaimed
// or freed).
func (k *Kernel) Loans() int { return len(k.loans) }

// VisitLoans calls fn for every outstanding loan in ascending frame
// order: the borrowing task, the virtual page the frame backs, and
// the ladder rung it came from.
func (k *Kernel) VisitLoans(fn func(f phys.Frame, t *Task, vpage uint64, rung Rung)) {
	frames := make([]phys.Frame, 0, len(k.loans))
	for f := range k.loans {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		l := k.loans[f]
		fn(f, l.task, l.vp, l.rung)
	}
}

// LoanRungMirror returns the rung the flat hot-path loan mirror holds
// for frame f (RungNone when unloaned). The auditor's check 7 walks
// it against the loans map: the mirror is what freeFrame consults, so
// a divergence means a loan could be silently dropped or kept past
// its settlement.
func (k *Kernel) LoanRungMirror(f phys.Frame) Rung {
	if k.loanRung[f] == 0 {
		return RungNone
	}
	return Rung(k.loanRung[f] - 1)
}

// ResidentPages counts the resident pages of the regions this task
// mmapped — its live footprint, the classifier's capacity feature.
// O(region pages); meant for barrier-rate sampling, not hot paths.
func (t *Task) ResidentPages() uint64 {
	var n uint64
	for _, r := range t.proc.regions {
		if r.owner != t {
			continue
		}
		for vp := r.start >> phys.PageShift; vp < r.end>>phys.PageShift; vp++ {
			if _, ok := t.proc.pt.Lookup(vp); ok {
				n++
			}
		}
	}
	return n
}

// OwnsBankColor reports whether the task's TCB holds bank color c.
func (t *Task) OwnsBankColor(c int) bool { return c >= 0 && c < len(t.bankSet) && t.bankSet[c] }

// OwnsLLCColor reports whether the task's TCB holds LLC color c.
func (t *Task) OwnsLLCColor(c int) bool { return c >= 0 && c < t.proc.k.colors.nLLC && t.ownsLLC(c) }

// VisitTLB calls fn for every live entry of the task's simulated TLB
// in slot order.
func (t *Task) VisitTLB(fn func(vpage uint64, f phys.Frame)) {
	for _, e := range t.tlb {
		if e.vp != 0 {
			fn(e.vp, e.frame)
		}
	}
}
