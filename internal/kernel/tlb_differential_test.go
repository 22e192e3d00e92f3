package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// TLB differential test: the simulated TLB is a pure fast path, and
// the process page table is its reference. One kernel runs arbitrary
// interleavings of mmap, touch, munmap, recolor and migrate across
// tasks sharing an address space. After every touch, the address
// Translate returns must be the one the page table (FrameOfVA) holds,
// and a page that was resident before the touch must keep its frame
// and cost nothing; a repeat touch must hit the TLB and agree too.
// Any missed shootdown shows up as a stale physical address the first
// time the TLB serves it. After every op the invariant auditor runs,
// and its check 4 compares every live TLB entry of every task with the
// page table.

// tlbKernel drives one kernel through an op log.
type tlbKernel struct {
	k     *kernel.Kernel
	tasks []*kernel.Task
	tproc []int
	// regions holds each process's live mmapped regions.
	regions map[int][]tlbRegion
}

type tlbRegion struct {
	base  uint64
	pages int
}

func newTLBKernel() (*tlbKernel, error) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(256<<20, top.Nodes())
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(top, m, kernel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tk := &tlbKernel{k: k, regions: map[int][]tlbRegion{}}
	procs := []*kernel.Process{k.NewProcess(), k.NewProcess()}
	for _, tc := range []struct {
		p    int
		core topology.CoreID
	}{{0, 0}, {0, 5}, {1, 10}} {
		t, err := procs[tc.p].NewTask(tc.core)
		if err != nil {
			return nil, err
		}
		tk.tasks = append(tk.tasks, t)
		tk.tproc = append(tk.tproc, tc.p)
	}
	return tk, nil
}

// apply runs one op and, for a touch, holds Translate to the page
// table.
func (tk *tlbKernel) apply(o kop) error {
	ti := o.task % len(tk.tasks)
	t := tk.tasks[ti]
	proc := tk.tproc[ti]
	regs := tk.regions[proc]
	switch o.kind {
	case opMmap:
		pages := 1 + o.arg%16
		base, err := t.Mmap(0, uint64(pages)*phys.PageSize, 0)
		if err != nil {
			return fmt.Errorf("mmap of %d pages: %v", pages, err)
		}
		tk.regions[proc] = append(regs, tlbRegion{base: base, pages: pages})

	case opTouch:
		if len(regs) == 0 {
			return nil
		}
		reg := regs[o.arg%len(regs)]
		va := reg.base + uint64(o.page%reg.pages)*phys.PageSize
		before, resident := t.FrameOfVA(va)
		pa, cost, err := t.Translate(va)
		f, ok := t.FrameOfVA(va)
		if err != nil {
			if ok {
				return fmt.Errorf("translate %#x failed (%v) but the page table maps it to frame %d", va, err, f)
			}
			return nil
		}
		switch {
		case !ok:
			return fmt.Errorf("translate %#x = %#x but the page is not resident", va, pa)
		case pa != f.Base()+phys.Addr(phys.Offset(phys.Addr(va))):
			return fmt.Errorf("translate %#x = %#x but the page table maps it to frame %d (stale TLB entry?)", va, pa, f)
		case resident && f != before:
			return fmt.Errorf("translate %#x moved a resident page from frame %d to %d", va, before, f)
		case resident && cost != 0:
			return fmt.Errorf("translate %#x of a resident page charged %d cycles — the TLB must not change timing", va, cost)
		}
		// The entry the touch just filled serves a repeat, which must
		// agree with the page table too.
		hits := tk.k.Stats().TLBHits
		again, cost, err := t.Translate(va)
		switch {
		case err != nil || again != pa || cost != 0:
			return fmt.Errorf("repeat translate %#x = (%#x, %d, %v), want (%#x, 0, nil)", va, again, cost, err, pa)
		case tk.k.Stats().TLBHits != hits+1:
			return fmt.Errorf("repeat translate %#x missed the TLB", va)
		}

	case opMunmap:
		if len(regs) == 0 {
			return nil
		}
		i := o.arg % len(regs)
		reg := regs[i]
		if err := t.Munmap(reg.base, uint64(reg.pages)*phys.PageSize); err != nil {
			return fmt.Errorf("munmap [%#x,+%d): %v", reg.base, reg.pages, err)
		}
		tk.regions[proc] = append(regs[:i:i], regs[i+1:]...)

	case opSetBank, opClearBank, opSetLLC, opClearLLC:
		m := tk.k.Mapping()
		var arg uint64
		switch o.kind {
		case opSetBank:
			arg = uint64(o.arg%m.NumBankColors()) | kernel.SetMemColor
		case opClearBank:
			arg = uint64(o.arg%m.NumBankColors()) | kernel.ClearMemColor
		case opSetLLC:
			arg = uint64(o.arg%m.NumLLCColors()) | kernel.SetLLCColor
		case opClearLLC:
			arg = uint64(o.arg%m.NumLLCColors()) | kernel.ClearLLCColor
		}
		if _, err := t.Mmap(arg, 0, kernel.ColorAlloc); err != nil {
			return fmt.Errorf("color op %#x: %v", arg, err)
		}

	case opMigrate:
		if len(regs) == 0 {
			return nil
		}
		reg := regs[o.arg%len(regs)]
		// An uncolored task is refused; the audit after the op judges
		// whatever a colored one moved.
		_, _ = t.Migrate(reg.base, uint64(reg.pages)*phys.PageSize)
	}
	return nil
}

func TestTLBShootdownDifferential(t *testing.T) {
	// Munmap/migrate/recolor-heavy mix: every one of those must shoot
	// down or flush TLB entries, and a touch right after is exactly
	// the access pattern that exposes a missed shootdown.
	kinds := []int{
		opMmap, opMmap, opTouch, opTouch, opTouch, opTouch,
		opMunmap, opMunmap, opMigrate, opMigrate,
		opSetBank, opClearBank, opSetLLC, opClearLLC,
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tk, err := newTLBKernel()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 600; i++ {
				o := kop{
					kind: kinds[rng.Intn(len(kinds))],
					task: rng.Intn(3),
					arg:  rng.Intn(1 << 16),
					page: rng.Intn(1 << 16),
				}
				if err := tk.apply(o); err != nil {
					t.Fatalf("op %d %v: %v", i, o, err)
				}
				if err := invariant.Audit(tk.k).Err(); err != nil {
					t.Fatalf("after op %d %v: %v", i, o, err)
				}
			}
			st := tk.k.Stats()
			if st.TLBHits == 0 || st.TLBMisses == 0 {
				t.Errorf("TLB hits %d, misses %d: the mix must exercise both", st.TLBHits, st.TLBMisses)
			}
			if st.TLBShootdowns == 0 {
				t.Error("no shootdowns despite munmap/migrate/recolor ops")
			}
		})
	}
}
