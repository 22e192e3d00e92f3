package kernel

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Page migration: recolor already-resident pages. TintMalloc itself
// colors only *future* allocations — data first-touched before a task
// selected its colors (or touched by the wrong task) stays where it
// landed. The paper's related work attacks that gap with dynamic
// page migration (Awasthi et al.); this extension provides the same
// capability on top of the colored allocator, enabling the
// profile-then-recolor workflow without restarting the program:
// record a trace, find the remote-heavy ranges, Migrate them.

// MigratePerPageCost is the simulated cost of copying one 4 KiB page
// (two streaming passes plus TLB shootdown, ~2 us at 2 GHz).
const MigratePerPageCost clock.Dur = 4000

// MigrateStats reports what a Migrate call did.
type MigrateStats struct {
	Scanned   int // resident pages inspected
	Moved     int // pages re-allocated onto the task's colors
	AlreadyOK int // pages already matching the task's colors
	Failed    int // page copies failed by an injected migration fault
	Cost      clock.Dur
}

// Migrate moves the resident pages of [va, va+length) onto frames
// matching t's current colors. Pages already matching are left in
// place. The returned cost covers page copies and the allocation
// work; callers running inside the engine should charge it as
// Compute time. Migration requires the task to have coloring active.
func (t *Task) Migrate(va, length uint64) (MigrateStats, error) {
	var st MigrateStats
	if !t.usingBank && !t.usingLLC {
		return st, fmt.Errorf("kernel: Migrate: task %d has no colors selected", t.id)
	}
	k := t.proc.k
	end := va + length
	for page := va &^ (phys.PageSize - 1); page < end; page += phys.PageSize {
		vp := page >> phys.PageShift
		old, ok := t.proc.pt.Lookup(vp)
		if !ok {
			continue // not resident; will be colored at first touch
		}
		st.Scanned++
		if t.frameMatchesColors(k, old) {
			st.AlreadyOK++
			continue
		}
		// An injected migration fault degrades gracefully: the page
		// simply stays on its old frame.
		if k.fault.Migrate != nil && k.fault.Migrate(t.id, vp) {
			st.Failed++
			continue
		}
		fresh, cost, rung, err := k.allocPagesFor(t)
		if err != nil {
			return st, fmt.Errorf("kernel: Migrate at %#x: %w", page, err)
		}
		t.proc.pt.Insert(vp, fresh)
		if rung != RungNone {
			k.registerLoan(fresh, t, vp, rung)
		}
		t.proc.shootdownPage(vp)
		k.freeFrame(old)
		st.Moved++
		st.Cost += cost + MigratePerPageCost
	}
	return st, nil
}

// frameMatchesColors reports whether frame f satisfies the task's
// current color constraints.
func (t *Task) frameMatchesColors(k *Kernel, f phys.Frame) bool {
	if t.usingBank && !t.bankSet[k.frameBank[f]] {
		return false
	}
	if t.usingLLC && !t.ownsLLC(int(k.frameLLC[f])) {
		return false
	}
	return true
}
