package bench_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/suite"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// Golden-file tests pin the exact rendered output of every tintbench
// format and the tintreport markdown. They serve two purposes: any
// accidental format change shows up as a reviewable diff, and —
// because the fixtures are committed — any nondeterminism anywhere in
// the simulator stack (scheduler, allocator iteration order, map
// ranging in a writer) breaks the build on the spot. The figure
// fixtures are produced the way tintbench produces the figures:
// through suite.Run on the embedded registry's entries. Regenerate
// intentionally with:
//
//	go test ./internal/bench -run TestGolden -update
func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s drifted from golden file (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenLatency(t *testing.T) {
	mach := newMachine(t)
	r, err := bench.RunLatency(mach, 0, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "latency.golden", renderAll(t, r))
}

func TestGoldenFig10(t *testing.T) {
	r := bench.NewFig10Result(runEntry(t, synthEntry(t, "fig10"), smallParams, 1, 2))
	checkGolden(t, "fig10.golden", renderAll(t, r))
}

func TestGoldenSuite(t *testing.T) {
	r := bench.NewSuiteResult(runEntry(t, synthEntry(t, "paper"), smallParams, 1, 2))
	var sb strings.Builder
	r.WriteRuntimeTable(&sb)
	sb.WriteString("\n")
	r.WriteIdleTable(&sb)
	sb.WriteString("\n")
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "suite.golden", sb.String())
}

// The per-thread fixture is one run per policy: the perthread-lbm
// entry's repeats = 1 must beat the 3 asked for here.
func TestGoldenPerThread(t *testing.T) {
	s := synthEntry(t, "perthread-lbm")
	s.Policies = []string{"buddy", "MEM+LLC"}
	r := bench.NewPerThreadResult(runEntry(t, s, smallParams, 3, 2))
	var sb strings.Builder
	r.WriteTable(&sb)
	sb.WriteString("\n")
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "perthread.golden", sb.String())
}

func TestGoldenSweep(t *testing.T) {
	r, err := bench.RunSweep(bench.SweepHopCycles, []float64{0, 50}, workload.Synthetic(),
		"4_threads_4_nodes", smallParams, 1, 1<<30, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	sb.WriteString("\n")
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep.golden", sb.String())
}

// TestGoldenChurn pins the workloads whose bodies allocate and free
// heap blocks as they run: the ported entry (garbage, gc_latency,
// http, json) and freqmine on a one-node and a two-node
// configuration under buddy and MEM+LLC, plus a small heteromix run
// under the adaptive engine (the -exp adaptive path). The figure
// goldens run only the synthetic workload, so without this fixture a
// change to when heap calls happen could move these cells unseen.
// Each cell records its simulated runtime, idle, per-thread runtimes,
// fault cycles, engine ops and the kernel's counters.
func TestGoldenChurn(t *testing.T) {
	s, err := suite.Default().ByName("ported")
	if err != nil {
		t.Fatal(err)
	}
	specs := append(append([]suite.WorkloadSpec(nil), s.Workloads...), suite.WorkloadSpec{Driver: "freqmine"})
	mach := newMachine(t)
	var sb strings.Builder
	for _, cname := range []string{"4_threads_1_nodes", "8_threads_2_nodes"} {
		cfg, err := bench.ConfigByName(mach.Topo, cname)
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range specs {
			wl, err := ws.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range []policy.Policy{policy.Buddy, policy.MEMLLC} {
				var k *kernel.Kernel
				spec := bench.RunSpec{Workload: wl, Config: cfg, Policy: pol, Params: smallParams}
				m, err := bench.RunInstrumented(mach, spec, func(kk *kernel.Kernel, _ *engine.Engine) { k = kk })
				if err != nil {
					t.Fatal(err)
				}
				writeChurnCell(&sb, cname+"/"+wl.Name+"/"+pol.String(), m, k.Stats())
			}
		}
	}

	amach, err := bench.NewAdaptiveMachine()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bench.ConfigByName(amach.Topo, "4_threads_1_nodes")
	if err != nil {
		t.Fatal(err)
	}
	row, err := bench.RunAdaptive(amach, bench.AdaptiveOptions{
		Workload: workload.HeteroMix(workload.HeteroSpec{StreamBytes: 2 << 20, Epochs: 4}),
		Config:   cfg, Params: smallParams,
		Initial: policy.MEMOnly, Adaptive: true,
		CompactBudget: bench.AdaptiveCompactBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeChurnCell(&sb, cfg.Name+"/heteromix/"+row.Policy, row.Metrics, row.Kern)
	fmt.Fprintf(&sb, "  audits %d loans %d repolicies %d compact %+v cost %d\n",
		row.Audits, row.Loans, row.Repolicies, row.Compact, row.CompactCost)
	for _, sw := range row.Switches {
		fmt.Fprintf(&sb, "  switch %+v\n", sw)
	}
	checkGolden(t, "churn.golden", sb.String())
}

// TestGoldenChaos pins the chaos matrix's three renders: the
// synthetic workload clean and under two fault plans.
func TestGoldenChaos(t *testing.T) {
	mach := newMachine(t)
	cfg, err := bench.ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	var plans []fault.Plan
	for _, name := range []string{"refill-starve", "pressure-storm"} {
		p, err := fault.PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	r, err := bench.RunChaos(mach, cfg, "MEM+LLC", []workload.Workload{workload.Synthetic()},
		plans, workload.Params{Seed: 3, Scale: 0.05}, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos.golden", renderAll(t, r))
}

// TestGoldenAdaptive pins the adaptive matrix's three renders as
// tintbench -exp adaptive runs it: every static policy, the engine,
// and the engine under the migrate-flaky plan.
func TestGoldenAdaptive(t *testing.T) {
	r, err := bench.RunAdaptiveExperiment(workload.Params{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "adaptive.golden", renderAll(t, r))
}

// renderAll renders a result as table, CSV and JSON, one blank line
// apart, as the golden fixtures hold them.
func renderAll(t *testing.T, r interface {
	WriteTable(io.Writer)
	WriteCSV(io.Writer) error
	WriteJSON(io.Writer) error
}) string {
	t.Helper()
	var sb strings.Builder
	r.WriteTable(&sb)
	sb.WriteString("\n")
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("\n")
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func writeChurnCell(sb *strings.Builder, name string, m bench.RunMetrics, ks kernel.Stats) {
	fmt.Fprintf(sb, "%s\n  runtime %d idle %d fault_cycles %d ops %d\n",
		name, m.Runtime, m.TotalIdle, m.FaultCycles, m.Ops)
	fmt.Fprintf(sb, "  thread_runtime %v\n  thread_idle %v\n  kernel %+v\n",
		m.ThreadRuntime, m.ThreadIdle, ks)
}

// The tintreport markdown renderer is pinned against a fabricated
// report so the golden does not depend on a full validation run.
func TestGoldenReportMarkdown(t *testing.T) {
	rep := &bench.ValidationReport{Results: []bench.ClaimResult{
		{ID: "latency", Claim: "local is faster than remote",
			Expected: "3-hop >= 1.3x local", Measured: "local 80.0, 3-hop 140.0 (1.75x)", Pass: true},
		{ID: "fig10", Claim: "MEM/LLC coloring is shortest",
			Expected: "MEM+LLC < buddy", Measured: "buddy 1.00, MEM+LLC 0.71", Pass: true},
		{ID: "bpm", Claim: "BPM always results in longer runtimes",
			Expected: "BPM > buddy", Measured: "BPM 0.98x buddy", Pass: false},
	}}
	var sb strings.Builder
	rep.WriteMarkdown(&sb)
	if got, want := rep.Passed(), 2; got != want {
		t.Errorf("Passed() = %d, want %d", got, want)
	}
	checkGolden(t, "report.golden", sb.String())
}

// Sanity on the fixture set itself: every golden this suite compares
// against must exist and be non-empty, so a botched -update run (or a
// stray clean) fails loudly instead of skipping comparisons.
func TestGoldenFixturesPresent(t *testing.T) {
	if *update {
		t.Skip("fixtures are being rewritten")
	}
	for _, name := range []string{
		"latency.golden", "fig10.golden", "suite.golden",
		"perthread.golden", "sweep.golden", "report.golden", "churn.golden",
		"chaos.golden", "adaptive.golden",
	} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Errorf("missing golden file %s: %v", name, err)
		} else if len(b) == 0 {
			t.Errorf("golden file %s is empty", name)
		}
	}
}
