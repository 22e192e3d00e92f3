package suite

import (
	"reflect"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

func defaultBase() workload.Params { return workload.Params{Seed: 1, Scale: 1.0} }

func testMachine(t *testing.T) *bench.Machine {
	t.Helper()
	mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// stripSpec zeroes the non-comparable Workload.Build closure so cells
// can be DeepEqual'd (two builds of the same workload produce
// distinct func values).
func stripSpec(c bench.Cell) bench.Cell {
	c.Spec.Workload.Build = nil
	return c
}

var diffParams = workload.Params{Seed: 1, Scale: 0.05}

// Run must be worker-count-neutral for any entry, including driver
// instances with custom knobs. (The paper entries are pinned by the
// golden files and the parallel battery in internal/bench.)
func TestSuiteRunParallelNeutral(t *testing.T) {
	mach := testMachine(t)
	s := Suite{
		Name:     "knobbed",
		Configs:  []string{"4_threads_1_nodes"},
		Policies: []string{"buddy", "MEM+LLC"},
		Workloads: []WorkloadSpec{
			{Name: "g", Driver: "garbage", Ops: 3000},
			{Name: "j", Driver: "json", Ops: 6, Depth: 4},
		},
	}
	seq, err := Run(mach, s, diffParams, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(mach, s, diffParams, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"g/buddy", "g/MEM+LLC", "j/buddy", "j/MEM+LLC"}
	if len(seq.Cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(seq.Cells), len(want))
	}
	for i := range seq.Cells {
		if sp := seq.Cells[i].Spec; sp.Workload.Name+"/"+sp.Policy.String() != want[i] {
			t.Errorf("cell %d is %s/%s, want %s in canonical order", i, sp.Workload.Name, sp.Policy, want[i])
		}
		if a, b := stripSpec(seq.Cells[i]), stripSpec(par.Cells[i]); !reflect.DeepEqual(a, b) {
			t.Errorf("cell %d diverged between workers=1 and workers=8", i)
		}
	}
}
