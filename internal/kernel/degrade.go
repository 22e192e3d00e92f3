package kernel

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// The degradation ladder (DESIGN.md Sec. 10). The paper's Algorithm 2
// fails an mmap when no page of the requested color exists, which is
// the right contract for a coloring *experiment* but the wrong one
// for a long-running system: a transient squeeze on one node would
// kill tasks while free frames sit idle elsewhere. A failed
// preferred-placement allocation steps down rung by rung instead
// (Ladder), and every frame handed out below the top is recorded as a
// loan so the reclaim pass can send it home once pressure subsides and
// the invariant auditor can account for the temporary break in color
// exclusivity. Only when no rung has a frame does the allocation fail,
// with ErrNoMemory.

// Rung identifies how far from its preferred placement a degraded
// allocation landed.
type Rung int

const (
	// RungBorrowColor is a same-node parked page borrowed from a
	// color no task has claimed (for colored borrowers), or any
	// same-node parked page (for uncolored tasks whose zones are dry).
	RungBorrowColor Rung = iota
	// RungLocalUncolored is a plain local-node buddy frame handed to
	// a colored task: locality preserved, color guarantee dropped.
	RungLocalUncolored
	// RungRemote is anything beyond the local node — remote buddy
	// frames and remote parked pages — and, as the very last resort,
	// a local parked page of any color, another task's included.
	RungRemote
	// NumRungs sizes per-rung counters.
	NumRungs
)

// RungNone marks a preferred-placement allocation (no loan).
const RungNone Rung = -1

// String returns a short rung label for reports.
func (r Rung) String() string {
	switch r {
	case RungBorrowColor:
		return "borrow-color"
	case RungLocalUncolored:
		return "local-uncolored"
	case RungRemote:
		return "remote"
	case RungNone:
		return "none"
	default:
		return fmt.Sprintf("rung(%d)", int(r))
	}
}

// FaultHooks are the kernel-level fault-injection points
// (internal/fault wires them; zone-level buddy OOM goes through
// SetZoneFaultHook instead). Hooks must be deterministic functions of
// their arguments and the hook's own state — no wall clock, no global
// rand; tintvet's faultpure analyzer enforces this.
type FaultHooks struct {
	// Refill, when set, is consulted once per (fault, zone) before
	// create_color_list refills color lists from that zone's buddy
	// blocks; returning true fails the refill for the zone (its buddy
	// blocks stay put, and the allocation proceeds to the next zone
	// or down the ladder).
	Refill func(node int) bool
	// Migrate, when set, is consulted once per page Migrate would
	// move; returning true fails the copy — the page stays on its old
	// frame and is counted in MigrateStats.Failed.
	Migrate func(taskID int, vpage uint64) bool
}

// SetFaultHooks installs (or, with zero value, removes) the kernel's
// fault-injection hooks.
func (k *Kernel) SetFaultHooks(h FaultHooks) { k.fault = h }

// SetZoneFaultHook installs a fault hook on node n's buddy zone; it
// vets every Alloc/AllocExact against injected OOM or a capacity
// squeeze before the free lists are touched.
func (k *Kernel) SetZoneFaultHook(n int, h buddy.FaultHook) { k.zones[n].SetFaultHook(h) }

// loan records one frame handed out below the top of the ladder: who
// borrowed it, the virtual page it backs, and the rung it came from.
type loan struct {
	task *Task
	vp   uint64
	rung Rung
}

// registerLoan records a ladder frame once its caller has mapped it.
// Translate and Migrate call it right after the page-table insert;
// the auditor checks the two stay coherent.
func (k *Kernel) registerLoan(f phys.Frame, t *Task, vp uint64, rung Rung) {
	if k.loans == nil {
		k.loans = make(map[phys.Frame]loan)
	}
	k.loans[f] = loan{task: t, vp: vp, rung: rung}
	k.loanRung[f] = uint8(rung) + 1
	k.stats.LoansRegistered++
}

// LadderStore is a store the degradation ladder walks: a color-list
// store and its buddy zones, seen by one claim. Each method pops one
// frame of one node, or reports false.
type LadderStore interface {
	// Lend pops the page Rows.Borrow finds on node for the claim: a
	// color no claim holds, on the claim's coloring axis.
	Lend(node int) (phys.Frame, bool)
	// Zone pops an order-0 frame from node's buddy zone.
	Zone(node int) (phys.Frame, bool)
	// Parked pops any parked page of node, the list Rows.First finds.
	Parked(node int) (phys.Frame, bool)
}

// Ladder is the one walk of the degradation ladder, run once a
// claim's preferred placement has come up empty; nodes is the claim's
// zone-fallback order, local node first. The rungs, in order:
//
//  1. a local page of a color no claim holds (RungBorrowColor);
//  2. a local zone frame (RungLocalUncolored);
//  3. each remote node's zone frame, then its parked pages
//     (RungRemote);
//  4. last, a local parked page of any color, another claim's
//     included (RungRemote): exclusivity is surrendered before the
//     machine reports OOM with free frames still parked, and the
//     loan keeps the break visible to the auditor.
//
// An uncolored claim, whose zones are dry, takes parked pages in node
// order: RungBorrowColor on its local node, RungRemote beyond it.
// Ladder is generic over the store so that a call on a concrete store
// allocates nothing.
func Ladder[S LadderStore](s S, nodes []int, colored bool) (phys.Frame, Rung, bool) {
	local := nodes[0]
	if !colored {
		rung := RungBorrowColor
		for _, n := range nodes {
			if f, ok := s.Parked(n); ok {
				return f, rung, true
			}
			rung = RungRemote
		}
		return 0, RungNone, false
	}
	if f, ok := s.Lend(local); ok {
		return f, RungBorrowColor, true
	}
	if f, ok := s.Zone(local); ok {
		return f, RungLocalUncolored, true
	}
	for _, n := range nodes[1:] {
		if f, ok := s.Zone(n); ok {
			return f, RungRemote, true
		}
		if f, ok := s.Parked(n); ok {
			return f, RungRemote, true
		}
	}
	if f, ok := s.Parked(local); ok {
		return f, RungRemote, true
	}
	return 0, RungNone, false
}

// taskStore is the kernel's LadderStore: its color table and zones,
// lent on task t's claim from the task's LLC scan cursor.
type taskStore struct {
	k *Kernel
	t *Task
}

func (s taskStore) Lend(node int) (phys.Frame, bool) {
	k, t := s.k, s.t
	bc, lc := k.colors.Borrow(node, t.usingBank, t.llcMask, t.llcScan, k.bankClaims, k.llcClaims)
	if bc < 0 {
		return 0, false
	}
	return k.colors.popExact(bc, lc)
}

func (s taskStore) Zone(node int) (phys.Frame, bool) {
	f, err := s.k.zones[node].Alloc(0)
	return s.k.zoneLo[node] + f, err == nil
}

func (s taskStore) Parked(node int) (phys.Frame, bool) { return s.k.popParkedOnNode(node) }

// popParkedOnNode pops any parked page of node n: the newest page of
// its first occupied list.
func (k *Kernel) popParkedOnNode(n int) (phys.Frame, bool) {
	bc, lc := k.colors.First(n)
	if bc < 0 {
		return 0, false
	}
	return k.colors.popExact(bc, lc)
}

// reclaimParkedZone sweeps node n's parked pages out of the color
// lists back into the buddy zone, coalescing them — Algorithm 2 in
// reverse. Huge (order > 0) requests cannot be served from 4 KiB
// color lists, so under pressure the kernel un-colors parked pages to
// rebuild contiguity; they re-shatter on the next colored refill.
// Returns the number of frames reclaimed.
func (k *Kernel) reclaimParkedZone(n int) uint64 {
	var reclaimed uint64
	for f, ok := k.popParkedOnNode(n); ok; f, ok = k.popParkedOnNode(n) {
		k.coloredFrame[f] = false
		home := k.mapping.NodeOfFrame(f)
		if err := k.zones[home].Free(f-k.zoneLo[home], 0); err != nil {
			panic(fmt.Sprintf("kernel: reclaimParkedZone(%d): %v", n, err))
		}
		reclaimed++
	}
	k.stats.ParkedReclaimed += reclaimed
	return reclaimed
}

// allocPreferred is preferred-placement allocation only — Algorithm 1
// without the ladder. allocPagesFor tries it before the ladder; the
// reclaim pass uses it alone, so a loan moves home only when its real
// placement is available again.
func (k *Kernel) allocPreferred(t *Task) (phys.Frame, clock.Dur, bool) {
	k.stats.Faults++
	if !t.usingBank && !t.usingLLC {
		return k.allocDefault(t)
	}
	t.faultCount++
	return k.allocColored(t)
}

// ReclaimLoans migrates this task's loaned pages back onto
// preferred-placement frames, returning each borrowed frame to its
// home free list. heap.Trim calls it after releasing slabs — the
// moment pressure subsides — but it is safe to call at any time. Only
// loans whose preferred placement is available again move; the rest
// stay loaned. Each page copy consults the injected migration fault
// hook (exactly like Task.Migrate): a faulted copy leaves its loan on
// the ledger, intact, and counts in failed. Returns the pages moved
// and the copies an injected fault failed.
func (t *Task) ReclaimLoans() (moved, failed int) {
	var st CompactStats
	t.compactLoans(int(^uint(0)>>1), &st)
	return st.LoansMoved, st.LoansFailed
}
