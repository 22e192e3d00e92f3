package bench_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/suite"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The figure experiments are registry entries run through suite.Run
// (see cmd/tintbench), so their tests live outside package bench,
// which suite imports.

func newMachine(t testing.TB) *bench.Machine {
	t.Helper()
	mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// synthEntry is a paper matrix from the embedded registry narrowed to
// the synthetic workload on 4_threads_4_nodes, the small shape most
// figure tests run.
func synthEntry(t testing.TB, name string) suite.Suite {
	t.Helper()
	s, err := suite.Default().ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Workloads = []suite.WorkloadSpec{{Driver: "synthetic"}}
	s.Configs = []string{"4_threads_4_nodes"}
	return s
}

// runEntry runs a suite on a fresh machine and returns its cells.
func runEntry(t testing.TB, s suite.Suite, params workload.Params, repeats, workers int) []bench.Cell {
	t.Helper()
	r, err := suite.Run(newMachine(t), s, params, repeats, workers)
	if err != nil {
		t.Fatal(err)
	}
	return r.Cells
}

var smallParams = workload.Params{Seed: 1, Scale: 0.1}

// TestPaperShapeFig10 asserts the synthetic benchmark ordering of
// Fig. 10: every coloring beats buddy, and MEM+LLC is fastest.
func TestPaperShapeFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	s, err := suite.Default().ByName("fig10")
	if err != nil {
		t.Fatal(err)
	}
	// Scale 0.4 keeps working sets large enough that the cache/DRAM
	// contention effects the assertions check still operate.
	r := bench.NewFig10Result(runEntry(t, s, workload.Params{Seed: 1, Scale: 0.4}, 1, 1))
	get := func(p policy.Policy) float64 {
		for i, q := range r.Policies {
			if q == p {
				return r.Cells[i].Runtime.Mean
			}
		}
		t.Fatalf("policy %v missing", p)
		return 0
	}
	buddy := get(policy.Buddy)
	memllc := get(policy.MEMLLC)
	if !(memllc < buddy) {
		t.Errorf("MEM+LLC (%.0f) not faster than buddy (%.0f)", memllc, buddy)
	}
	if !(get(policy.LLCOnly) < buddy) {
		t.Errorf("LLC coloring did not beat buddy")
	}
	if !(get(policy.MEMOnly) < buddy) {
		t.Errorf("MEM coloring did not beat buddy")
	}
	if !(memllc <= get(policy.LLCOnly) && memllc <= get(policy.MEMOnly)) {
		t.Errorf("MEM+LLC not the fastest policy")
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	if !strings.Contains(sb.String(), "MEM+LLC") {
		t.Error("WriteTable missing MEM+LLC row")
	}
}

func TestSuiteRowLookupAndTables(t *testing.T) {
	res := bench.NewSuiteResult(runEntry(t, synthEntry(t, "paper"), smallParams, 1, 1))
	row, ok := res.Row("synthetic", "4_threads_4_nodes")
	if !ok {
		t.Fatal("Row lookup failed")
	}
	if row.NormRuntime(row.Buddy) != 1.0 {
		t.Errorf("buddy normalizes to %.3f, want 1", row.NormRuntime(row.Buddy))
	}
	if _, ok := res.Row("nope", "x"); ok {
		t.Error("Row found nonexistent cell")
	}
	var sb strings.Builder
	res.WriteRuntimeTable(&sb)
	res.WriteIdleTable(&sb)
	out := sb.String()
	if !strings.Contains(out, "synthetic") || !strings.Contains(out, "Fig. 12") {
		t.Error("tables incomplete")
	}
}

func TestPerThreadResultShape(t *testing.T) {
	s := synthEntry(t, "perthread-lbm")
	s.Policies = []string{"buddy", "MEM+LLC"}
	r := bench.NewPerThreadResult(runEntry(t, s, smallParams, 1, 1))
	if len(r.Runtime) != 2 || len(r.Runtime[0]) != 4 {
		t.Fatalf("per-thread matrix shape wrong: %dx%d", len(r.Runtime), len(r.Runtime[0]))
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	if !strings.Contains(sb.String(), "Fig. 14") {
		t.Error("WriteTable missing Fig. 14")
	}
}

func TestDetailCoversAllPolicies(t *testing.T) {
	r := bench.NewDetailResult(runEntry(t, synthEntry(t, "detail-lbm"), smallParams, 1, 1))
	if len(r.Rows) != len(policy.All()) {
		t.Errorf("detail rows = %d, want %d", len(r.Rows), len(policy.All()))
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	for _, p := range policy.All() {
		if !strings.Contains(sb.String(), p.String()) {
			t.Errorf("detail table missing %s", p)
		}
	}
	blocks := threadBlocks(t, sb.String())
	if len(blocks) != len(policy.All()) {
		t.Fatalf("%d per-thread blocks, want one per policy (%d)", len(blocks), len(policy.All()))
	}
	for _, p := range policy.All() {
		rows := blocks[p.String()]
		var names []string
		for _, row := range rows {
			names = append(names, row[0])
		}
		if want := []string{"t0", "t1", "t2", "t3", "total"}; !slices.Equal(names, want) {
			t.Errorf("%s block rows %v, want %v", p, names, want)
		}
	}
}

// threadBlocks splits a rendered detail table into its per-thread
// blocks by policy, each the fields of the rows under its header.
func threadBlocks(t *testing.T, table string) map[string][][]string {
	t.Helper()
	out := map[string][][]string{}
	for _, block := range strings.Split(table, "\n\n")[1:] {
		lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
		name, ok := strings.CutPrefix(lines[0], "Per-thread detail — ")
		if !ok || len(lines) < 3 {
			t.Fatalf("malformed per-thread block:\n%s", block)
		}
		name = strings.TrimSuffix(name, " (last repetition)")
		for _, l := range lines[2:] {
			out[name] = append(out[name], strings.Fields(l))
		}
	}
	return out
}

// TestDetailThreadBlock holds the detail table's per-thread block to
// the engine's access stream. Each thread's counters must be what its
// own accesses did, the threads must sum to the memory system's
// totals, the run's remote fraction and its fault cycles, and each
// rendered row must average the access and fault cycles the trace
// saw.
func TestDetailThreadBlock(t *testing.T) {
	mach := newMachine(t)
	cfg, err := bench.ConfigByName(mach.Topo, "8_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.ByName("equake")
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.RunSpec{Workload: wl, Config: cfg, Policy: policy.BPM, Params: smallParams}
	n := cfg.Threads()
	want := make([]mem.CoreStats, n)
	faults := make([]clock.Dur, n)
	var ms *mem.System
	m, err := bench.RunInstrumented(mach, spec, func(_ *kernel.Kernel, e *engine.Engine) {
		ms = e.Mem()
		e.SetTracer(func(ev engine.TraceEvent) {
			st := &want[ev.Thread]
			st.Accesses++
			switch ev.Level {
			case mem.LevelL1:
				st.L1Hits++
			case mem.LevelL2:
				st.L2Hits++
			case mem.LevelL3:
				st.L3Hits++
			case mem.LevelDRAMRemote:
				st.RemoteDRAM++
				st.DRAMReads++
			case mem.LevelDRAMLocal:
				st.DRAMReads++
			}
			st.TotalCycles += clock.Dur(ev.Done-ev.Start) - ev.FaultCycles
			faults[ev.Thread] += ev.FaultCycles
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.ThreadMem, want) {
		t.Errorf("ThreadMem = %+v\ntrace counts %+v", m.ThreadMem, want)
	}
	if !slices.Equal(m.ThreadFaultCycles, faults) {
		t.Errorf("ThreadFaultCycles = %v, trace counts %v", m.ThreadFaultCycles, faults)
	}
	var sum mem.CoreStats
	var sumFaults clock.Dur
	for i := range m.ThreadMem {
		sum.Add(m.ThreadMem[i])
		sumFaults += m.ThreadFaultCycles[i]
	}
	if tot := ms.TotalStats(); sum != tot {
		t.Errorf("threads sum to %+v, mem totals %+v", sum, tot)
	}
	if sumFaults != m.FaultCycles || sumFaults == 0 {
		t.Errorf("thread fault cycles sum to %d, run has %d", sumFaults, m.FaultCycles)
	}
	if got := sum.RemoteFrac(); got != m.RemoteDRAMFrac || got == 0 {
		t.Errorf("threads' remote fraction %v, run's %v", got, m.RemoteDRAMFrac)
	}

	cell := bench.Cell{Spec: spec, Last: m,
		Runtime: stats.Summarize([]float64{float64(m.Runtime)}),
		Idle:    stats.Summarize([]float64{float64(m.TotalIdle)})}
	var sb strings.Builder
	bench.NewDetailResult([]bench.Cell{cell}).WriteTable(&sb)
	rows := threadBlocks(t, sb.String())["BPM"]
	if len(rows) != n+1 {
		t.Fatalf("BPM block has %d rows, want %d threads plus total:\n%s", len(rows), n, sb.String())
	}
	fields := func(name string, core []string, st mem.CoreStats, fault clock.Dur) []string {
		out := append([]string{name}, core...)
		return append(out, fmt.Sprint(st.Accesses), fmt.Sprint(st.L1Hits), fmt.Sprint(st.L2Hits),
			fmt.Sprint(st.L3Hits), fmt.Sprint(st.DRAMReads),
			fmt.Sprintf("%.1f%%", 100*float64(st.RemoteDRAM)/float64(st.DRAMReads)),
			fmt.Sprintf("%.1f", float64(st.TotalCycles+fault)/float64(st.Accesses)),
			fmt.Sprint(fault))
	}
	for i, st := range want {
		if w := fields(fmt.Sprintf("t%d", i), []string{fmt.Sprint(cfg.Cores[i])}, st, faults[i]); !slices.Equal(rows[i], w) {
			t.Errorf("thread row %v, want %v", rows[i], w)
		}
	}
	total := fields("total", nil, ms.TotalStats(), m.FaultCycles)
	if !slices.Equal(rows[n], total) {
		t.Errorf("total row %v, want %v", rows[n], total)
	}
	if remote := fmt.Sprintf("%.1f%%", m.RemoteDRAMFrac*100); rows[n][6] != remote {
		t.Errorf("total row remote %s, policy row's remote%% %s", rows[n][6], remote)
	}
}

func TestCSVExports(t *testing.T) {
	lat, err := bench.RunLatency(newMachine(t), 0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := lat.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 5 {
		t.Errorf("latency CSV has %d lines, want 5 (header+4 nodes)", lines)
	}

	f10 := bench.NewFig10Result(runEntry(t, synthEntry(t, "fig10"), smallParams, 1, 1))
	sb.Reset()
	if err := f10.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MEM+LLC") {
		t.Error("fig10 CSV missing policy rows")
	}

	suiteRes := bench.NewSuiteResult(runEntry(t, synthEntry(t, "paper"), smallParams, 1, 1))
	sb.Reset()
	if err := suiteRes.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	// header + 4 bars (buddy/BPM/MEM+LLC/other) per row.
	if lines := strings.Count(sb.String(), "\n"); lines != 5 {
		t.Errorf("suite CSV has %d lines, want 5", lines)
	}
	if !strings.Contains(sb.String(), "runtime_norm") {
		t.Error("suite CSV missing normalized column")
	}

	s := synthEntry(t, "perthread-lbm")
	s.Policies = []string{"buddy"}
	pt := bench.NewPerThreadResult(runEntry(t, s, smallParams, 1, 1))
	sb.Reset()
	if err := pt.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 5 {
		t.Errorf("per-thread CSV has %d lines, want 5 (header+4 threads)", lines)
	}

	det := bench.NewDetailResult(runEntry(t, synthEntry(t, "detail-lbm"), smallParams, 1, 1))
	sb.Reset()
	if err := det.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 8 {
		t.Errorf("detail CSV has %d lines, want 8 (header+7 policies)", lines)
	}
}

func TestParallelSuiteMatchesSequential(t *testing.T) {
	s := synthEntry(t, "paper")
	seq := bench.NewSuiteResult(runEntry(t, s, smallParams, 2, 1))
	par := bench.NewSuiteResult(runEntry(t, s, smallParams, 2, 8))
	a, b := seq.Rows[0], par.Rows[0]
	if a.Buddy.Runtime != b.Buddy.Runtime || a.MEMLLC.Runtime != b.MEMLLC.Runtime ||
		a.BPM.Runtime != b.BPM.Runtime || a.Other.Runtime != b.Other.Runtime ||
		a.OtherPolicy != b.OtherPolicy {
		t.Errorf("parallel suite diverged from sequential:\nseq %+v\npar %+v", a, b)
	}
}
