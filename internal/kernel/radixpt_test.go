package kernel

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Structural edge cases for the radix page table. The differential
// tests (radixpt_differential_test.go) hold the table to a map model
// under random op logs; these tests poke the corners of the data
// structure directly: vpage 0, the maximum vpage, frame 0 (the
// frame+1 encoding's sentinel collision), sparse spans grown in both
// directions, and leaf release.

func TestRadixPTVpageZero(t *testing.T) {
	var r RadixPT
	if _, ok := r.Lookup(0); ok {
		t.Fatal("empty table claims vpage 0 is mapped")
	}
	// Frame 0 is a valid frame; the frame+1 encoding must not confuse
	// it with "not present".
	r.Insert(0, 0)
	if f, ok := r.Lookup(0); !ok || f != 0 {
		t.Fatalf("Lookup(0) = (%d, %v), want (0, true)", f, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	r.Insert(0, 7)
	if f, ok := r.Lookup(0); !ok || f != 7 {
		t.Fatalf("after overwrite: Lookup(0) = (%d, %v), want (7, true)", f, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("overwrite changed Len to %d", r.Len())
	}
	if !r.Delete(0) {
		t.Fatal("Delete(0) found nothing")
	}
	if _, ok := r.Lookup(0); ok || r.Len() != 0 || r.Leaves() != 0 {
		t.Fatalf("after delete: mapped=%v len=%d leaves=%d, want gone", ok, r.Len(), r.Leaves())
	}
	if r.Delete(0) {
		t.Fatal("double Delete(0) reported success")
	}
}

func TestRadixPTMaxVpage(t *testing.T) {
	const maxVP = ^uint64(0)
	var r RadixPT
	r.Insert(maxVP, 42)
	if f, ok := r.Lookup(maxVP); !ok || f != 42 {
		t.Fatalf("Lookup(max) = (%d, %v), want (42, true)", f, ok)
	}
	// The biased root makes a lone extreme vpage cheap: one leaf, a
	// one-entry root.
	if r.Leaves() != 1 {
		t.Fatalf("Leaves = %d, want 1", r.Leaves())
	}
	// Neighbors in the same top leaf, and misses on both sides.
	r.Insert(maxVP-1, 41)
	if f, ok := r.Lookup(maxVP - 1); !ok || f != 41 {
		t.Fatalf("Lookup(max-1) = (%d, %v), want (41, true)", f, ok)
	}
	for _, vp := range []uint64{0, 1, maxVP - ptLeafSize} {
		if _, ok := r.Lookup(vp); ok {
			t.Fatalf("Lookup(%#x) hit in a table mapping only the top leaf", vp)
		}
	}
	if !r.Delete(maxVP) || !r.Delete(maxVP-1) {
		t.Fatal("delete at the top of the space failed")
	}
	if r.Len() != 0 || r.Leaves() != 0 {
		t.Fatalf("len=%d leaves=%d after deleting all", r.Len(), r.Leaves())
	}
}

// TestRadixPTSparseHighLowMix grows the biased root in both
// directions: inserts start mid-span, then alternate toward vpage 0
// and the top of a bounded window, with a map mirror checked
// throughout. (The root is dense over the occupied span — the
// documented trade-off — so the window stays bounded; lone extremes
// are covered by TestRadixPTMaxVpage.)
func TestRadixPTSparseHighLowMix(t *testing.T) {
	const span = uint64(3 << 20) // 6144 root chunks at the widest
	var r RadixPT
	mirror := map[uint64]phys.Frame{}
	rng := rand.New(rand.NewSource(8))

	vps := []uint64{span / 2}
	for i := 0; i < 40; i++ {
		vps = append(vps, rng.Uint64()%span)
	}
	// Force the extremes and some leaf-straddling neighbors.
	vps = append(vps, 0, 1, ptLeafSize-1, ptLeafSize, ptLeafSize+1, span-1, span-ptLeafSize)

	for i, vp := range vps {
		f := phys.Frame(i * 3)
		r.Insert(vp, f)
		mirror[vp] = f
		// Interleave deletes so bias growth and shrink-to-empty-leaf
		// interact.
		if i%5 == 4 {
			victim := vps[rng.Intn(i+1)]
			if r.Delete(victim) != (func() bool { _, ok := mirror[victim]; return ok })() {
				t.Fatalf("Delete(%#x) disagreed with the mirror", victim)
			}
			delete(mirror, victim)
		}
	}

	if r.Len() != len(mirror) {
		t.Fatalf("Len = %d, mirror has %d", r.Len(), len(mirror))
	}
	for vp, want := range mirror {
		if f, ok := r.Lookup(vp); !ok || f != want {
			t.Fatalf("Lookup(%#x) = (%d, %v), want (%d, true)", vp, f, ok, want)
		}
	}
	for _, vp := range []uint64{span + 1, span * 2, ^uint64(0)} {
		if _, ok := r.Lookup(vp); ok {
			t.Fatalf("Lookup(%#x) hit outside the occupied window", vp)
		}
	}
	// Visit must produce the mirror's contents in ascending vpage
	// order with no sorting pass.
	var got []uint64
	r.Visit(func(vp uint64, f phys.Frame) {
		if mirror[vp] != f {
			t.Fatalf("Visit(%#x) = frame %d, mirror has %d", vp, f, mirror[vp])
		}
		got = append(got, vp)
	})
	if len(got) != len(mirror) {
		t.Fatalf("Visit yielded %d entries, mirror has %d", len(got), len(mirror))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Visit order is not ascending")
	}
}

// TestRadixPTWholeLeafRelease checks that munmap of a region covering
// an entire 512-entry leaf releases the leaf's page-table memory —
// first directly, then through the kernel (vaBase is leaf-aligned, so
// a 512-page mapping occupies exactly one leaf).
func TestRadixPTWholeLeafRelease(t *testing.T) {
	var r RadixPT
	base := uint64(4 << ptLeafBits) // leaf-aligned
	for i := uint64(0); i < ptLeafSize; i++ {
		r.Insert(base+i, phys.Frame(i))
	}
	if r.Leaves() != 1 {
		t.Fatalf("full leaf: Leaves = %d, want 1", r.Leaves())
	}
	for i := uint64(0); i < ptLeafSize; i++ {
		if !r.Delete(base + i) {
			t.Fatalf("Delete(%#x) missed", base+i)
		}
	}
	if r.Leaves() != 0 || r.Len() != 0 {
		t.Fatalf("after emptying the leaf: leaves=%d len=%d, want 0", r.Leaves(), r.Len())
	}

	k := boot(t)
	task, err := k.NewProcess().NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	p := task.proc
	va, err := task.Mmap(0, ptLeafSize*phys.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if (va>>phys.PageShift)&ptLeafMask != 0 {
		t.Fatalf("mmap base %#x is not leaf-aligned; test premise broken", va)
	}
	for i := uint64(0); i < ptLeafSize; i++ {
		if _, _, err := task.Translate(va + i*phys.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if p.pt.Leaves() != 1 || p.pt.Len() != ptLeafSize {
		t.Fatalf("resident region: leaves=%d len=%d, want 1/%d", p.pt.Leaves(), p.pt.Len(), ptLeafSize)
	}
	if err := task.Munmap(va, ptLeafSize*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	if p.pt.Leaves() != 0 || p.pt.Len() != 0 {
		t.Fatalf("after munmap: leaves=%d len=%d, want 0 (leaf not released)", p.pt.Leaves(), p.pt.Len())
	}
}
