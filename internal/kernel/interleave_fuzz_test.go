package kernel_test

import (
	"errors"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// FuzzKernelInterleaving feeds encoded alloc/free/recolor/churn
// interleavings over two tasks into the kernel with the invariant
// auditor armed after every operation. Individual operations may be
// rejected (that is the syscall surface doing its job); what must
// never happen is a panic, a cross-layer bookkeeping violation, or a
// frame leaking out of (or into) the accounted pools — checked via
// exact frame conservation against the boot-time baseline. Since the
// auditor also cross-checks every live TLB entry against the page
// table (invariant.Audit check 4), each fuzzed interleaving doubles
// as a TLB shootdown-coherence probe: a munmap, migrate or recolor
// that misses an invalidation fails the very next audit.
//
// Unmapped regions are kept as retired, and the munmap operation also
// probes them: munmap of a retired region and a touch inside one must
// fail with ErrSegfault, and munmap of a live region with the wrong
// length must fail and leave the region mapped and touchable. These
// are the stale-region paths of the kernel's tombstoned region index.
//
// Encoding: each operation is 3 bytes [sel, arg, page]. sel%10 picks
// the operation, (sel/10)%2 the task; arg and page select regions,
// colors, sizes and offsets modulo whatever is live. For munmap,
// page%4 picks the variant and page/4 the offset or length skew.
func FuzzKernelInterleaving(f *testing.F) {
	// Seeds: a plain map/touch/unmap lifecycle, a recolor storm, a
	// churn loop, a mixed interleaving, and six regions of which four
	// are unmapped (compacting the index) between stale-region probes.
	f.Add([]byte{0, 4, 0, 1, 0, 0, 1, 0, 1, 2, 0, 0})
	f.Add([]byte{3, 1, 0, 4, 2, 0, 13, 3, 0, 5, 1, 0, 15, 2, 0})
	f.Add([]byte{6, 1, 0, 6, 2, 0, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{0, 8, 0, 3, 0, 0, 1, 0, 3, 9, 0, 0, 2, 0, 0, 16, 1, 1})
	f.Add([]byte{
		0, 1, 0, 0, 2, 0, 10, 0, 0, 10, 3, 0, 0, 1, 0, 10, 2, 0,
		1, 0, 0, 11, 1, 1, 1, 2, 0, 11, 3, 1,
		2, 0, 0, 2, 0, 1, 12, 0, 2, 2, 1, 3, 12, 2, 7,
		12, 1, 0, 2, 0, 0, 2, 0, 0,
		2, 0, 1, 2, 1, 1, 2, 2, 1, 12, 3, 2, 2, 1, 6, 2, 0, 3, 12, 1, 7,
		1, 0, 0, 0, 0, 0, 2, 0, 0, 2, 2, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 96
		top := topology.Opteron6128()
		m, err := phys.DefaultSeparable(64<<20, top.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.New(top, m, kernel.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		proc := k.NewProcess()
		var tasks []*kernel.Task
		for _, core := range []topology.CoreID{0, 7} {
			task, err := proc.NewTask(core)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		base := invariant.Audit(k)
		if err := base.Err(); err != nil {
			t.Fatalf("dirty kernel at boot: %v", err)
		}

		type region struct {
			base  uint64
			pages int
		}
		type stashed struct {
			frame phys.Frame
			order int
		}
		var regions, retired []region
		var stash []stashed
		var stashFrames uint64

		audit := func(opIdx int, sel byte) {
			r := invariant.Audit(k)
			if err := r.Err(); err != nil {
				t.Fatalf("op %d (sel=%d): %v", opIdx, sel, err)
			}
			if r.Unaccounted != base.Unaccounted+stashFrames {
				t.Fatalf("op %d (sel=%d): %d unaccounted frames, want churn holdout %d + stash %d",
					opIdx, sel, r.Unaccounted, base.Unaccounted, stashFrames)
			}
		}

		for i := 0; i+2 < len(data) && i/3 < maxOps; i += 3 {
			sel, arg, page := data[i], int(data[i+1]), int(data[i+2])
			task := tasks[(sel/10)%2]
			switch sel % 10 {
			case 0: // mmap
				pages := 1 + arg%8
				va, err := task.Mmap(0, uint64(pages)*phys.PageSize, 0)
				if err == nil {
					regions = append(regions, region{va, pages})
				}
			case 1: // touch
				if len(regions) > 0 {
					r := regions[arg%len(regions)]
					va := r.base + uint64(page%r.pages)*phys.PageSize
					_, _, _ = task.Translate(va) //nolint — rejection is fine, audit judges
				}
			case 2: // munmap
				switch page % 4 {
				case 0: // exact unmap of a live region, which retires it
					if len(regions) > 0 {
						j := arg % len(regions)
						r := regions[j]
						if task.Munmap(r.base, uint64(r.pages)*phys.PageSize) == nil {
							regions = append(regions[:j], regions[j+1:]...)
							retired = append(retired, r)
						}
					}
				case 1: // unmap of a retired region
					if len(retired) > 0 {
						r := retired[arg%len(retired)]
						if err := task.Munmap(r.base, uint64(r.pages)*phys.PageSize); !errors.Is(err, kernel.ErrSegfault) {
							t.Fatalf("op %d: munmap of retired region %#x = %v, want ErrSegfault", i/3, r.base, err)
						}
					}
				case 2: // touch inside a retired region
					if len(retired) > 0 {
						r := retired[arg%len(retired)]
						va := r.base + uint64(page/4%r.pages)*phys.PageSize
						if _, _, err := task.Translate(va); !errors.Is(err, kernel.ErrSegfault) {
							t.Fatalf("op %d: touch of retired %#x = %v, want ErrSegfault", i/3, va, err)
						}
					}
				case 3: // unmap of a live region with the wrong length
					if len(regions) > 0 {
						r := regions[arg%len(regions)]
						wrong := r.pages + 1 - 2*(page/4%2) // one page long or short
						if err := task.Munmap(r.base, uint64(wrong)*phys.PageSize); err == nil {
							t.Fatalf("op %d: munmap of region %#x with %d pages instead of %d succeeded",
								i/3, r.base, wrong, r.pages)
						}
						if _, _, err := task.Translate(r.base); errors.Is(err, kernel.ErrSegfault) {
							t.Fatalf("op %d: region %#x unmapped by a wrong-length munmap: %v", i/3, r.base, err)
						}
					}
				}
			case 3: // set bank color
				_, _ = task.Mmap(uint64(arg%m.NumBankColors())|kernel.SetMemColor, 0, kernel.ColorAlloc)
			case 4: // set LLC color
				_, _ = task.Mmap(uint64(arg%m.NumLLCColors())|kernel.SetLLCColor, 0, kernel.ColorAlloc)
			case 5: // clear bank color
				_, _ = task.Mmap(uint64(arg%m.NumBankColors())|kernel.ClearMemColor, 0, kernel.ColorAlloc)
			case 6: // clear LLC color
				_, _ = task.Mmap(uint64(arg%m.NumLLCColors())|kernel.ClearLLCColor, 0, kernel.ColorAlloc)
			case 7: // raw page-block alloc (churn)
				order := arg % 3
				if fr, _, err := k.AllocPages(task, order); err == nil {
					stash = append(stash, stashed{fr, order})
					stashFrames += 1 << order
				}
			case 8: // raw page-block free (churn)
				if len(stash) > 0 {
					j := arg % len(stash)
					s := stash[j]
					if err := k.FreePages(s.frame, s.order); err != nil {
						t.Fatalf("op %d: FreePages of stashed block (frame %d, order %d): %v",
							i/3, s.frame, s.order, err)
					}
					stash = append(stash[:j], stash[j+1:]...)
					stashFrames -= 1 << s.order
				}
			case 9: // migrate
				if len(regions) > 0 {
					r := regions[arg%len(regions)]
					_, _ = task.Migrate(r.base, uint64(r.pages)*phys.PageSize)
				}
			}
			audit(i/3, sel)
		}
	})
}
