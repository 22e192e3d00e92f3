package bench

import (
	"reflect"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

func adaptiveParams() workload.Params {
	// Scale 1, the scale RunAdaptiveMatrix pins: heteromix scales its
	// reuser's hot array and its churner's replacement count with it.
	return workload.Params{Seed: 1, Scale: 1}
}

// TestAdaptiveMatrix runs the full showcase and asserts the
// acceptance criteria: adaptive beats every static policy on runtime
// with identical engine ops, drops ladder allocations below static
// MEM, and actually switches policies — with the auditor (check 7
// included) green at every barrier of every cell, each cell run twice
// and compared field-for-field.
func TestAdaptiveMatrix(t *testing.T) {
	mach, err := NewAdaptiveMachine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAdaptiveMatrix(mach, adaptiveParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		res.WriteTable(testWriter{t})
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i].Audits == 0 {
			t.Errorf("row %s ran without audits", res.Rows[i].Policy)
		}
	}
}

// TestAdaptiveMatrixIgnoresScale runs the matrix the way the bench
// harness does, migrate-flaky row included, at the scales the harness
// and CI pass: every row must equal the scale-1 row and Check must
// pass at each scale.
func TestAdaptiveMatrixIgnoresScale(t *testing.T) {
	plan := migrateFlakyPlan(t)
	run := func(scale float64) *AdaptiveResult {
		mach, err := NewAdaptiveMachine()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunAdaptiveMatrix(mach, workload.Params{Seed: 1, Scale: scale}, &plan)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if err := res.Check(); err != nil {
			res.WriteTable(testWriter{t})
			t.Fatalf("scale %g: %v", scale, err)
		}
		return res
	}
	want := run(1)
	for _, scale := range []float64{0.02, 0.1} {
		if got := run(scale); !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("scale %g rows differ from scale 1:\n got %+v\nwant %+v", scale, got.Rows, want.Rows)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestAdaptiveHomogeneousByteIdentical is the twin-kernel
// differential: on a homogeneous mix whose stable classification
// equals the initial policy, the adaptive engine must be a perfect
// no-op — run metrics byte-identical to the same cell with no engine
// installed, switches zero, compaction cost zero (the scan may read,
// never move).
func TestAdaptiveHomogeneousByteIdentical(t *testing.T) {
	cfg4 := func(mach *Machine) Config {
		cfg, err := ConfigByName(mach.Topo, "4_threads_1_nodes")
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	cases := []struct {
		name    string
		pattern string
		initial policy.Policy
	}{
		// All-reuser: small hot sets, low miss rate, local — the
		// classifier holds every thread at LLC.
		{"reusers-LLC", "rrrr", policy.LLCOnly},
		// All-churner: tiny footprints — the classifier holds buddy.
		{"churners-buddy", "cccc", policy.Buddy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := workload.HeteroMix(workload.HeteroSpec{
				Pattern:     tc.pattern,
				StreamBytes: 8 << 20,
				Epochs:      4,
			})
			mach, err := NewAdaptiveMachine()
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg4(mach)
			static, err := RunAdaptive(mach, AdaptiveOptions{
				Workload: wl, Config: cfg, Params: adaptiveParams(), Initial: tc.initial,
			})
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := RunAdaptive(mach, AdaptiveOptions{
				Workload: wl, Config: cfg, Params: adaptiveParams(),
				Initial: tc.initial, Adaptive: true, CompactBudget: AdaptiveCompactBudget,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(adaptive.Switches) != 0 {
				t.Fatalf("homogeneous mix released switches: %+v", adaptive.Switches)
			}
			if adaptive.CompactCost != 0 || adaptive.Compact.PagesMoved != 0 || adaptive.Compact.LoansMoved != 0 {
				t.Fatalf("homogeneous mix compaction moved pages: %+v (cost %d)",
					adaptive.Compact, adaptive.CompactCost)
			}
			if !reflect.DeepEqual(static.Metrics, adaptive.Metrics) {
				t.Fatalf("adaptive engine perturbed a homogeneous run:\nstatic   %+v\nadaptive %+v",
					static.Metrics, adaptive.Metrics)
			}
		})
	}
}

// TestAdaptiveChaos reruns the adaptive cell under the migrate-flaky
// plan: injected migration faults must degrade compaction gracefully
// (failed moves stay loaned, retried later) with the auditor still
// green at every barrier and the run still deterministic.
func TestAdaptiveChaos(t *testing.T) {
	mach, err := NewAdaptiveMachine()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigByName(mach.Topo, adaptiveConfig)
	if err != nil {
		t.Fatal(err)
	}
	plan := migrateFlakyPlan(t)
	row, err := runAdaptiveCellTwice(mach, AdaptiveOptions{
		Workload: AdaptiveWorkload(), Config: cfg, Params: adaptiveParams(),
		Initial: policy.MEMLLC, Adaptive: true,
		CompactBudget: AdaptiveCompactBudget, Plan: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.OOM {
		t.Skip("plan drove the cell to OOM; nothing further to assert")
	}
	if row.Audits == 0 {
		t.Fatal("chaos cell ran without audits")
	}
	if row.Compact.LoansFailed+row.Compact.PagesFailed == 0 {
		t.Error("migrate-flaky plan injected no compaction failures")
	}
}

// migrateFlakyPlan finds the fault plan that makes Migrate flaky.
func migrateFlakyPlan(t *testing.T) fault.Plan {
	t.Helper()
	p, err := fault.PlanByName("migrate-flaky")
	if err != nil {
		t.Fatal(err)
	}
	return p
}
