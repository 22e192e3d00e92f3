package suite

import (
	"reflect"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
)

// TestRadixReferenceSuiteDifferential pins the radix page tables (and
// the SoA metadata layouts that ride the same fast paths) to the kept
// reference implementations at the level that matters for the
// acceptance contract: full benchmark cells. A machine on the fast
// layouts and one booted with Config.DisableRadixPT must produce
// byte-identical suite results at -parallel 1 and 4 — any
// representation leak (a changed fault cost, a reordered allocation,
// a stats drift) diverges some cell.
func TestRadixReferenceSuiteDifferential(t *testing.T) {
	reg := Default()
	s, err := reg.ByName("smoke")
	if err != nil {
		t.Fatal(err)
	}

	run := func(disableRadix bool, workers int) *Result {
		t.Helper()
		mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		mach.KernCfg.DisableRadixPT = disableRadix
		got, err := Run(mach, s, diffParams, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	want := run(true, 1) // map reference, sequential
	for _, workers := range []int{1, 4} {
		got := run(false, workers)
		if len(got.Cells) != len(want.Cells) {
			t.Fatalf("workers=%d: %d cells, reference has %d", workers, len(got.Cells), len(want.Cells))
		}
		for i := range want.Cells {
			g, w := stripSpec(got.Cells[i]), stripSpec(want.Cells[i])
			if !reflect.DeepEqual(g, w) {
				t.Errorf("workers=%d: cell %d (%s/%s/%s) diverged between radix and map reference:\n radix %+v\n map   %+v",
					workers, i, w.Spec.Workload.Name, w.Spec.Config.Name, w.Spec.Policy, g, w)
			}
		}
	}
}
