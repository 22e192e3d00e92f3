package bench

import (
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The chaos harness's own contract: rows cover (workload × plans+1),
// the clean baseline is fault-free, plans that inject report it, and
// the auditor ran at least once per cell.
func TestRunChaos(t *testing.T) {
	mach := testMachine(t)
	cfg, err := ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	plans := []fault.Plan{mustPlan(t, "refill-starve"), mustPlan(t, "pressure-storm")}
	r, err := RunChaos(mach, cfg, "MEM+LLC", []workload.Workload{workload.Synthetic()},
		plans, workload.Params{Seed: 3, Scale: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(r.Rows))
	}
	clean := r.Rows[0]
	if clean.Plan != "clean" || clean.Inj.TotalInjected() != 0 || clean.DegradedTotal() != 0 {
		t.Errorf("clean baseline shows faults: %+v", clean)
	}
	if got := r.VsClean(&r.Rows[0]); got != 1 {
		t.Errorf("clean VsClean = %v, want 1", got)
	}
	starve := r.Rows[1]
	if starve.Plan != "refill-starve" {
		t.Fatalf("row 1 plan = %q", starve.Plan)
	}
	if starve.Inj.Injected[fault.SiteRefill] == 0 {
		t.Error("refill-starve injected nothing")
	}
	if starve.DegradedTotal() == 0 {
		t.Error("refill-starve never reached the degradation ladder")
	}
	for i := range r.Rows {
		if r.Rows[i].Audits == 0 {
			t.Errorf("row %d ran without a single invariant audit", i)
		}
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	for _, want := range []string{"refill-starve", "pressure-storm", "divergence impact"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

// TestRunTwiceCatchesNondeterminism hands runTwice a cell whose
// second run builds a larger working set than its first: the
// determinism check behind both the chaos and the adaptive matrix
// must fail it.
func TestRunTwiceCatchesNondeterminism(t *testing.T) {
	mach := testMachine(t)
	cfg, err := ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Synthetic()
	build, runs := wl.Build, 0
	wl.Build = func(threads []engine.Thread, p workload.Params) ([]engine.Phase, error) {
		runs++
		p.Scale *= float64(runs)
		return build(threads, p)
	}
	_, err = runTwice(mach, AdaptiveOptions{
		Workload: wl, Config: cfg, Params: workload.Params{Seed: 1, Scale: 0.02}, Initial: policy.MEMLLC,
	})
	if err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Fatalf("runTwice = %v, want a nondeterminism error", err)
	}
}

func mustPlan(t *testing.T, name string) fault.Plan {
	t.Helper()
	p, err := fault.PlanByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzFaultPlan throws arbitrary fault plans at a small chaos cell
// and asserts the two properties no plan may break: the run is
// deterministic (two executions agree field-for-field), and the
// invariant auditor stays clean after every phase — errors other than
// the handled machine-wide OOM fail the target.
func FuzzFaultPlan(f *testing.F) {
	mach, err := NewMachine(MachineOptions{MemBytes: 1 << 30})
	if err != nil {
		f.Fatal(err)
	}
	cfg, err := ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint16(60), uint16(350), uint16(250), uint16(100), uint8(0), uint8(50), uint8(0))
	f.Add(int64(7), uint16(1000), uint16(0), uint16(0), uint16(0), uint8(3), uint8(0), uint8(2))
	f.Add(int64(42), uint16(0), uint16(1000), uint16(500), uint16(5000), uint8(1), uint8(99), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, pb, pr, pm, after uint16, limit, sfrac, snode uint8) {
		plan := fault.Plan{
			Name: "fuzz",
			Rules: []fault.Rule{
				{Site: fault.SiteBuddyAlloc, Node: -1, Permille: int(pb % 1001), After: uint64(after), Limit: uint64(limit)},
				{Site: fault.SiteRefill, Node: -1, Permille: int(pr % 1001)},
				{Site: fault.SiteMigrate, Node: -1, Permille: int(pm % 1001)},
			},
		}
		if frac := float64(sfrac%100) / 100; frac > 0 {
			plan.Squeezes = []fault.Squeeze{{Node: int(snode) % mach.Topo.Nodes(), Frac: frac}}
		}
		_, err := runTwice(mach, AdaptiveOptions{
			Workload: workload.Synthetic(),
			Config:   cfg,
			Params:   workload.Params{Seed: seed, Scale: 0.02},
			Initial:  policy.MEMLLC,
			Plan:     &plan,
		})
		if err != nil {
			t.Fatalf("plan %+v: %v", plan, err)
		}
	})
}
