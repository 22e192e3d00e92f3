package kernel

import (
	"fmt"
	"sort"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// The adaptive recolor path and the compaction daemon core
// (DESIGN.md Sec. 15). TintMalloc's syscall protocol installs colors
// one mmap at a time, which is the right interface for a program
// opting in at startup but the wrong one for an online policy engine:
// switching a task from MEM+LLC to uncolored through setColor would
// pass through several intermediate color sets, each a distinct
// allocation policy the auditor (and any concurrent fault) could
// observe. Repolicy replaces the whole TCB color state in one step,
// reconciles the loan ledger with the new claims, and leaves every
// already-resident page where it is — migration is the compaction
// daemon's job, done incrementally under a budget via CompactStep.

// compactScanPerMove bounds how many resident pages one CompactStep
// inspects per unit of move budget, so a step over a fully
// well-placed working set still terminates quickly. The scan resumes
// from a persistent per-task cursor, so successive steps cover the
// whole address space regardless of the cap.
const compactScanPerMove = 64

// compactScanFloor is the minimum pages one CompactStep inspects
// before giving up for the round (a tiny budget would otherwise crawl).
const compactScanFloor = 1024

// Repolicy atomically replaces the task's color sets with the given
// bank and LLC colors (either may be empty; both empty switches the
// task to the uncolored default path). It is the adaptive engine's
// recolor syscall: one TCB swap, one TLB flush, cursors reset, and
// the loan ledger reconciled — loans this task holds that the new
// colors legalize are settled in place, and borrow-color loans of
// other tasks that the new claims invalidate are demoted to the
// remote rung so check 5's exclusivity accounting stays exact.
// Resident pages are not migrated; CompactStep moves them
// incrementally.
func (t *Task) Repolicy(bank, llc []int) error {
	k := t.proc.k
	for _, c := range bank {
		if c < 0 || c >= k.mapping.NumBankColors() {
			return fmt.Errorf("%w: memory color %d (have %d)", ErrBadColor, c, k.mapping.NumBankColors())
		}
	}
	for _, c := range llc {
		if c < 0 || c >= k.mapping.NumLLCColors() {
			return fmt.Errorf("%w: LLC color %d (have %d)", ErrBadColor, c, k.mapping.NumLLCColors())
		}
	}
	for len(t.bankColors) > 0 {
		t.setBank(t.bankColors[len(t.bankColors)-1], false)
	}
	for len(t.llcColors) > 0 {
		t.setLLC(t.llcColors[len(t.llcColors)-1], false)
	}
	for _, c := range bank {
		t.setBank(c, true)
	}
	for _, c := range llc {
		t.setLLC(c, true)
	}
	t.usingBank = len(t.bankColors) > 0
	t.usingLLC = len(t.llcColors) > 0
	for i := range t.nodeSet {
		t.nodeSet[i] = false
	}
	for _, bc := range t.bankColors {
		t.nodeSet[k.mapping.NodeOfBankColor(bc)] = true
	}
	t.comboCursor, t.comboLLC, t.llcScan, t.bankScan = 0, 0, 0, 0
	t.compactCursor = 0
	// Same conservative model as setColor: a recolor shoots down the
	// task's cached translations (mappings themselves stay valid).
	t.tlbFlush()
	k.stats.Repolicies++
	k.reconcileLoans(t)
	return nil
}

// reconcileLoans re-evaluates the loan ledger after t's color sets
// changed. Two cases exist:
//
//   - Loans held BY t whose frame satisfies the new policy are no
//     longer degraded — the frame is exactly what the preferred path
//     would now hand out — so they settle in place (no migration, no
//     free; the page just stops being a loan).
//   - Borrow-color loans held by OTHER tasks promised a color no task
//     owns; if t's new claims cover such a frame's color, the borrow
//     becomes an exclusivity break and is demoted to the remote rung,
//     keeping it visible to the auditor without tripping check 5.
//
// Iteration is in ascending frame order so the ledger mutations are
// deterministic.
func (k *Kernel) reconcileLoans(t *Task) {
	if len(k.loans) == 0 {
		return
	}
	frames := make([]phys.Frame, 0, len(k.loans))
	for f := range k.loans {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		l := k.loans[f]
		if l.task == t {
			legal := false
			if t.usingBank || t.usingLLC {
				legal = t.frameMatchesColors(k, f)
			} else {
				// An uncolored task's preferred path hands out buddy
				// frames (any node under chunk diversion); only parked
				// colored frames stay degraded for it.
				legal = !k.coloredFrame[f]
			}
			if legal {
				k.loanRung[f] = 0
				delete(k.loans, f)
				k.stats.LoansSettled++
			}
			continue
		}
		if l.rung != RungBorrowColor {
			continue
		}
		conflict := (l.task.usingBank && t.bankSet[k.frameBank[f]]) ||
			(!l.task.usingBank && l.task.usingLLC && t.ownsLLC(int(k.frameLLC[f])))
		if conflict {
			l.rung = RungRemote
			k.loans[f] = l
			k.loanRung[f] = uint8(RungRemote) + 1
			k.stats.LoansDemoted++
		}
	}
}

// CompactStats reports one compaction step.
type CompactStats struct {
	LoansMoved   int // loans migrated back to preferred placement
	LoansFailed  int // loan migrations failed by an injected fault
	PagesScanned int // resident pages inspected by the misplaced scan
	PagesMoved   int // misplaced pages migrated onto the task's colors
	PagesFailed  int // page migrations failed by an injected fault
	// Wrapped reports that the misplaced-page scan reached the end of
	// the task's regions and reset its cursor — one full pass is done.
	Wrapped bool
	Cost    clock.Dur // simulated migration cost (charge at the barrier)
}

// CompactStep runs one budgeted increment of the compaction daemon
// for this task: first migrate up to `budget` of the task's
// degradation-ladder loans home (the generalized ReclaimLoans), then
// spend the remaining budget migrating misplaced resident pages —
// pages of the task's own regions whose frames no longer match its
// colors, typically left behind by a Repolicy — resuming the scan
// from a persistent cursor. Each attempted migration consults the
// injected migration fault hook, exactly like Task.Migrate; a failed
// page stays put and is retried on a later pass. Migration stops
// early when preferred-placement allocation fails (still under
// pressure — moving pages would just re-degrade them).
func (t *Task) CompactStep(budget int) CompactStats {
	var st CompactStats
	if budget <= 0 {
		return st
	}
	k := t.proc.k
	budget = t.compactLoans(budget, &st)
	if budget <= 0 || (!t.usingBank && !t.usingLLC) {
		return st
	}
	maxScan := budget * compactScanPerMove
	if maxScan < compactScanFloor {
		maxScan = compactScanFloor
	}
	// Walk the task's own regions (sorted by start) from the cursor.
	// Pages first-touched by other tasks into these regions are
	// skipped via the loan mirror only when loaned; otherwise they are
	// fair game — the region owner decides the region's placement.
	start := t.compactCursor
	for _, r := range t.proc.regions {
		if r.owner != t {
			continue
		}
		vp := r.start >> phys.PageShift
		if start > vp {
			vp = start // resume mid-pass; fully-scanned regions skip out
		}
		for end := r.end >> phys.PageShift; vp < end; vp++ {
			if budget <= 0 || st.PagesScanned >= maxScan {
				t.compactCursor = vp
				return st
			}
			old, ok := t.proc.pt.Lookup(vp)
			if !ok {
				continue
			}
			st.PagesScanned++
			k.stats.CompactScans++
			if k.loanRung[old] != 0 {
				continue // a loan: phase one (or its owner) handles it
			}
			if t.frameMatchesColors(k, old) {
				continue
			}
			if k.fault.Migrate != nil && k.fault.Migrate(t.id, vp) {
				st.PagesFailed++
				budget--
				continue
			}
			fresh, cost, ok := k.allocPreferred(t)
			if !ok {
				t.compactCursor = vp
				return st // pressure: stop, resume here next step
			}
			t.proc.pt.Insert(vp, fresh)
			t.proc.shootdownPage(vp)
			k.freeFrame(old)
			st.PagesMoved++
			st.Cost += cost + MigratePerPageCost
			k.stats.CompactMoved++
			budget--
		}
	}
	t.compactCursor = 0
	st.Wrapped = true
	return st
}

// compactLoans migrates up to budget of t's loans back onto
// preferred-placement frames, in ascending frame order, consulting
// the injected migration fault hook per page. Returns the unspent
// budget; outcomes accumulate into st.
func (t *Task) compactLoans(budget int, st *CompactStats) int {
	k := t.proc.k
	if len(k.loans) == 0 {
		return budget
	}
	// Collect this task's loans and process them in ascending frame
	// order; iterating the map directly would make the replacement
	// placements depend on Go's randomized map order.
	frames := make([]phys.Frame, 0, len(k.loans))
	for f, l := range k.loans {
		if l.task == t {
			frames = append(frames, f)
		}
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, old := range frames {
		if budget <= 0 {
			return 0
		}
		l := k.loans[old]
		// Only migrate a loan whose placement the task's CURRENT policy
		// would improve on. An uncolored task's preferred path hands out
		// local buddy frames, so its borrow-color and local-uncolored
		// loans already sit exactly where preferred placement would put
		// them — copying those pages spends real migration cost to buy
		// nothing (the ledger entry settles for free when the page is
		// eventually freed). Only parked-remote loans repair divergence.
		if !t.usingBank && !t.usingLLC && l.rung != RungRemote {
			continue
		}
		// An injected migration fault degrades gracefully: the loan
		// stays on the ledger, intact, and is retried next pass.
		if k.fault.Migrate != nil && k.fault.Migrate(t.id, l.vp) {
			st.LoansFailed++
			budget--
			continue
		}
		fresh, cost, ok := k.allocPreferred(t)
		if !ok {
			break // still under pressure; keep the remaining loans
		}
		t.proc.pt.Insert(l.vp, fresh)
		t.proc.shootdownPage(l.vp)
		k.freeFrame(old) // settles the loan; old reparks or rejoins buddy
		st.LoansMoved++
		st.Cost += cost + MigratePerPageCost
		k.stats.LoansReclaimed++
		budget--
	}
	return budget
}
