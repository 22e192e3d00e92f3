// Package invariant is the runtime half of the repository's
// correctness gate (the static half is cmd/tintvet): it audits the
// structural invariants TintMalloc's results depend on and that no
// single layer can check alone.
//
// The paper's claims are only meaningful if the simulator's
// bookkeeping never drifts between layers: every frame on
// color_list[bc][lc] must actually hash to (bc, lc) under the
// machine's address mapping (paper Eq. 1), a frame must have exactly
// one owner (a buddy free list, a color list or a page table), every
// TLB entry must agree with its page table, and policies that promise
// per-thread private color sets must actually hand out disjoint sets.
// A silent violation — e.g. a double-freed colored frame parked twice
// and then handed to two threads — would corrupt cycle counts without
// failing anything, which is exactly the failure mode cross-layer
// partitioners like BPM and vertical memory management are known for.
//
// Audit is wired into kernel, buddy, engine and bench tests (no build
// tags; it runs under plain `go test ./...`). It is O(frames) and not
// meant for simulation hot paths.
package invariant

import (
	"fmt"
	"strings"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
)

// maxViolations bounds how many violations one audit records; a
// corrupt kernel would otherwise produce one per frame.
const maxViolations = 20

// Report is the outcome of one Audit walk.
type Report struct {
	Frames    uint64 // total frames in the machine
	BuddyFree uint64 // frames on buddy free lists
	Parked    uint64 // frames parked on color lists
	Mapped    uint64 // frames resident in page tables
	// Unaccounted frames have no owner. Zero on an un-churned
	// kernel; a churned kernel pins HoldoutFrac of its frames as
	// permanently-resident "other process" memory, which shows up
	// here by design.
	Unaccounted uint64
	// Loans counts outstanding degradation-ladder loans (frames
	// handed out below preferred placement; DESIGN.md Sec. 10).
	Loans      uint64
	Violations []string
}

// Err returns nil for a clean report and an error summarizing the
// violations otherwise.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s):\n  %s",
		len(r.Violations), strings.Join(r.Violations, "\n  "))
}

func (r *Report) addf(format string, args ...any) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// frame owners for the exclusivity check.
const (
	ownerNone = iota
	ownerBuddy
	ownerColorList
	ownerPageTable
)

var ownerName = [...]string{"none", "buddy free list", "color list", "page table"}

// Audit cross-checks the kernel's frame bookkeeping across layers:
//
//  1. Every frame on color_list[bc][lc] hashes to bank color bc and
//     LLC color lc under the machine mapping, independently recomputed
//     from phys (not the kernel's cached tables).
//  2. Every frame has at most one owner among {buddy free list, color
//     list, page table}; duplicates on the same color list (a silent
//     colored double-free) count as two owners.
//  3. Frames marked colored never sit on a buddy free list, and frames
//     parked on a color list always carry the colored mark.
//  4. Every live entry of every task's simulated TLB maps a vpage to
//     exactly the frame the process page table holds — a stale entry
//     means a missed shootdown. The page table is the TLB's only
//     reference, so this check and TestTLBShootdownDifferential in
//     internal/kernel are what hold the TLB coherent.
//  5. Every degradation-ladder loan backs a resident page of its
//     borrower at the recorded virtual page, and a same-node color
//     borrow never holds a color inside another task's private set —
//     the plan-disjointness guarantee with loans accounted for.
//  7. The loan ledger and its hot-path mirror agree frame by frame
//     (same frames, same rungs, every rung on the ladder), and the
//     lifetime identity holds: loans registered = loans settled +
//     loans outstanding. This is the check that policy switches
//     (Task.Repolicy) and compaction (CompactStep) never leak,
//     double-settle, or silently drop a loan — the mirror is what
//     freeFrame consults, so a divergence is a future lost loan.
//  8. Every process's address space is coherent: its live regions are
//     non-empty, strictly sorted and non-overlapping, and every
//     resident page lies inside one of them. Munmap retires a region
//     as a tombstone and a later pass compacts them away, so this
//     catches both ways that can go wrong: a compaction that drops a
//     live region, and a Munmap that retires a region but leaves its
//     pages resident.
//  9. Every color list's occupancy bit is set exactly while the list
//     holds frames. The colored pops scan occupancy rows, not lists, so
//     a clear bit over a non-empty list strands its frames and a set
//     bit over an empty one sends a pop to nothing.
//  10. The kernel's per-color claim counts, which the ladder reads to
//     find colors no task holds, equal a recount over every task's
//     TCB.
//
// (Check 6 is the serve layer's AuditServer, in server.go.)
//
// The caller decides what Unaccounted must be: 0 for pristine
// kernels, the churn holdout for aged ones.
func Audit(k *kernel.Kernel) *Report {
	m := k.Mapping()
	r := &Report{Frames: m.Frames()}
	owner := make([]uint8, m.Frames())

	// claim makes who the owner of f. It reports false, changing
	// nothing, when f is out of range or already owned; the caller
	// then names itself to conflict, so a holder's description is
	// formatted only for a violation, never per frame.
	claim := func(f phys.Frame, who uint8) bool {
		if uint64(f) >= r.Frames || owner[f] != ownerNone {
			return false
		}
		owner[f] = who
		return true
	}
	conflict := func(f phys.Frame, what string) {
		if uint64(f) >= r.Frames {
			r.addf("%s holds out-of-range frame %d", what, f)
			return
		}
		r.addf("frame %d owned by both %s and %s", f, ownerName[owner[f]], what)
	}

	for n := 0; n < m.Nodes(); n++ {
		k.VisitZoneFree(n, func(head phys.Frame, order int) {
			for f := head; f < head+phys.Frame(uint64(1)<<order); f++ {
				if !claim(f, ownerBuddy) {
					conflict(f, "buddy free list")
				}
				r.BuddyFree++
				if k.FrameColored(f) {
					r.addf("colored frame %d returned to the buddy allocator; colored frames must rejoin their color list", f)
				}
			}
		})
	}

	k.VisitColorLists(func(bc, lc int, frames []phys.Frame, occupied bool) {
		// Check 9: the occupancy bit is set exactly while the list
		// holds frames.
		if occupied != (len(frames) > 0) {
			if occupied {
				r.addf("color list [%d][%d] is empty but its occupancy bit is set", bc, lc)
			} else {
				r.addf("color list [%d][%d] holds %d frames but its occupancy bit is clear; every pop skips them",
					bc, lc, len(frames))
			}
		}
		for _, f := range frames {
			if !claim(f, ownerColorList) {
				conflict(f, fmt.Sprintf("color list [%d][%d]", bc, lc))
			}
			r.Parked++
			if !m.ValidFrame(f) {
				continue
			}
			// Recompute from the bit-gather reference, not the memoized
			// frame tables the kernel itself reads — a corrupt table must
			// not vouch for itself.
			if wantBC, wantLC := m.GatherBankColor(f.Base()), m.GatherLLCColor(f.Base()); wantBC != bc || wantLC != lc {
				r.addf("frame %d parked on color list [%d][%d] but hashes to (%d,%d) under the mapping",
					f, bc, lc, wantBC, wantLC)
			}
			if !k.FrameColored(f) {
				r.addf("frame %d parked on color list [%d][%d] without the colored ownership mark", f, bc, lc)
			}
		}
	})
	checkClaims(r, k)

	for _, p := range k.Processes() {
		p.VisitPages(func(vp uint64, f phys.Frame) {
			if !claim(f, ownerPageTable) {
				conflict(f, fmt.Sprintf("process %d page table (vpage %#x)", p.ID(), vp))
			}
			r.Mapped++
		})
		for _, t := range p.Tasks() {
			// TLB coherence: every cached translation must agree with
			// the process page table — a stale entry means a missed
			// shootdown on munmap, migrate or recolor.
			t.VisitTLB(func(vp uint64, f phys.Frame) {
				got, ok := t.FrameOfVA(vp << phys.PageShift)
				switch {
				case !ok:
					r.addf("task %d TLB caches vpage %#x -> frame %d but the page is not resident (missed shootdown)",
						t.ID(), vp, f)
				case got != f:
					r.addf("task %d TLB caches vpage %#x -> frame %d but the page table maps it to frame %d",
						t.ID(), vp, f, got)
				}
			})
		}
		checkAddressSpace(r, p)
	}

	r.Loans = uint64(k.Loans())
	onLedger := make(map[phys.Frame]bool, k.Loans())
	k.VisitLoans(func(f phys.Frame, bt *kernel.Task, vp uint64, rung kernel.Rung) {
		onLedger[f] = true
		// Check 7: ledger/mirror coherence per loan. The rung must be a
		// real ladder rung and the flat mirror must record exactly it.
		if rung < 0 || rung >= kernel.NumRungs {
			r.addf("loan of frame %d to task %d records rung %d, outside the ladder", f, bt.ID(), int(rung))
		}
		if mr := k.LoanRungMirror(f); mr != rung {
			r.addf("loan of frame %d to task %d: ledger says rung %s but the hot-path mirror says %s",
				f, bt.ID(), rung, mr)
		}
		got, ok := bt.FrameOfVA(vp << phys.PageShift)
		switch {
		case !ok:
			r.addf("loan of frame %d to task %d (vpage %#x, rung %s) is dangling: page not resident",
				f, bt.ID(), vp, rung)
			return
		case got != f:
			r.addf("loan of frame %d to task %d (vpage %#x) disagrees with the page table, which maps it to frame %d",
				f, bt.ID(), vp, got)
			return
		}
		if rung != kernel.RungBorrowColor {
			return
		}
		// A borrow promises a color no other task owns; an overlap
		// means the ladder (or a later color grant) silently broke a
		// policy's exclusivity guarantee. Uncolored borrowers make no
		// color claim and are skipped.
		bc, lc := k.FrameColors(f)
		for _, p := range k.Processes() {
			for _, o := range p.Tasks() {
				if o.ID() == bt.ID() {
					continue
				}
				if bt.UsingBank() && o.OwnsBankColor(bc) {
					r.addf("frame %d borrowed by task %d carries bank color %d, which is assigned to task %d",
						f, bt.ID(), bc, o.ID())
				}
				if !bt.UsingBank() && bt.UsingLLC() && o.OwnsLLCColor(lc) {
					r.addf("frame %d borrowed by task %d carries LLC color %d, which is assigned to task %d",
						f, bt.ID(), lc, o.ID())
				}
			}
		}
	})

	// Check 7, other direction: a mirror entry with no ledger record
	// would make freeFrame "settle" a loan that does not exist.
	for f := phys.Frame(0); uint64(f) < r.Frames; f++ {
		if mr := k.LoanRungMirror(f); mr != kernel.RungNone && !onLedger[f] {
			r.addf("frame %d: hot-path mirror records rung %s but the loan ledger has no entry", f, mr)
		}
	}
	// Check 7, lifetime identity: every loan ever opened was either
	// settled or is still on the ledger. Repolicy's in-place settles,
	// CompactStep's migrations and freeFrame all feed the same
	// counters, so drift here means a path dropped a loan silently.
	if st := k.Stats(); st.LoansRegistered != st.LoansSettled+r.Loans {
		r.addf("loan ledger identity broken: %d registered != %d settled + %d outstanding",
			st.LoansRegistered, st.LoansSettled, r.Loans)
	}

	for _, o := range owner {
		if o == ownerNone {
			r.Unaccounted++
		}
	}
	return r
}

// checkClaims is check 10: the per-color claim counts the ladder
// reads equal a recount of the colors every task's TCB holds.
func checkClaims(r *Report, k *kernel.Kernel) {
	m := k.Mapping()
	bank := make([]int, m.NumBankColors())
	llc := make([]int, m.NumLLCColors())
	for _, p := range k.Processes() {
		for _, t := range p.Tasks() {
			for _, c := range t.BankColors() {
				bank[c]++
			}
			for _, c := range t.LLCColors() {
				llc[c]++
			}
		}
	}
	for c, n := range bank {
		if got := k.ColorClaims(true, c); got != n {
			r.addf("bank color %d: claim count %d but %d tasks hold it", c, got, n)
		}
	}
	for c, n := range llc {
		if got := k.ColorClaims(false, c); got != n {
			r.addf("LLC color %d: claim count %d but %d tasks hold it", c, got, n)
		}
	}
}

// checkAddressSpace is check 8 for one process: its live regions are
// non-empty, strictly sorted and non-overlapping, and every resident
// page lies inside one. Regions and pages both arrive in ascending
// order, so one merge walk covers them in O(pages + regions). The
// regions are counted first so their copy is one allocation.
func checkAddressSpace(r *Report, p *kernel.Process) {
	type span struct{ start, end uint64 }
	n := 0
	p.VisitRegions(func(uint64, uint64, *kernel.Task) { n++ })
	live := make([]span, 0, n)
	p.VisitRegions(func(start, end uint64, owner *kernel.Task) {
		if end <= start {
			r.addf("process %d region [%#x, %#x) of task %d is empty", p.ID(), start, end, owner.ID())
		}
		if n := len(live); n > 0 && start < live[n-1].end {
			r.addf("process %d region [%#x, %#x) of task %d overlaps or precedes the region [%#x, %#x)",
				p.ID(), start, end, owner.ID(), live[n-1].start, live[n-1].end)
		}
		live = append(live, span{start, end})
	})
	i := 0
	p.VisitPages(func(vp uint64, f phys.Frame) {
		va := vp << phys.PageShift
		for i < len(live) && live[i].end <= va {
			i++
		}
		if i == len(live) || va < live[i].start {
			r.addf("process %d vpage %#x (frame %d) is resident outside every live region", p.ID(), vp, f)
		}
	})
}

// CheckBuddy verifies one buddy allocator's free-list structure in
// isolation: block alignment, range, non-overlap, and agreement
// between FreeFrames and the sum over free blocks.
func CheckBuddy(a *buddy.Allocator) error {
	seen := make([]bool, a.Frames())
	var total uint64
	var errs []string
	addf := func(format string, args ...any) {
		if len(errs) < maxViolations {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	a.VisitFreeBlocks(func(head phys.Frame, order int) {
		n := uint64(1) << order
		if uint64(head)&(n-1) != 0 {
			addf("free block head %d misaligned for order %d", head, order)
		}
		if uint64(head)+n > a.Frames() {
			addf("free block [%d,%d) exceeds range %d", head, uint64(head)+n, a.Frames())
			return
		}
		for f := head; f < head+phys.Frame(n); f++ {
			if seen[f] {
				addf("frame %d appears in two free blocks", f)
			}
			seen[f] = true
		}
		total += n
	})
	if total != a.FreeFrames() {
		addf("free blocks sum to %d frames but FreeFrames() = %d", total, a.FreeFrames())
	}
	if len(errs) > 0 {
		return fmt.Errorf("invariant: buddy: %s", strings.Join(errs, "; "))
	}
	return nil
}

// CheckPlan verifies the color-set disjointness a policy promises
// (paper Sec. V-B: "private" always means disjoint from every other
// thread). Bank disjointness is only a guarantee under a separable
// mapping — with overlapped bank/LLC bits the bank sets are derived
// from LLC compatibility and may legitimately intersect.
func CheckPlan(m *phys.Mapping, p policy.Policy, asn []policy.Assignment) error {
	var errs []string
	if p.PrivateBanks() && m.SeparableColors() {
		if err := disjoint("bank", func(i int) []int { return asn[i].BankColors }, len(asn)); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if p.PrivateLLC() {
		if err := disjoint("LLC", func(i int) []int { return asn[i].LLCColors }, len(asn)); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("invariant: plan for %s: %s", p, strings.Join(errs, "; "))
	}
	return nil
}

func disjoint(kind string, colorsOf func(i int) []int, n int) error {
	ownerOf := map[int]int{}
	for i := 0; i < n; i++ {
		for _, c := range colorsOf(i) {
			if prev, ok := ownerOf[c]; ok {
				return fmt.Errorf("%s color %d granted to both thread %d and thread %d", kind, c, prev, i)
			}
			ownerOf[c] = i
		}
	}
	return nil
}
