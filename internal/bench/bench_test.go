package bench

import (
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// shapeScale runs the suite fast while keeping working sets large
// enough that the cache/DRAM contention effects the assertions check
// still operate.
const shapeScale = 0.4

func testMachine(t *testing.T) *Machine {
	t.Helper()
	mach, err := NewMachine(MachineOptions{MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

func cfg16(t *testing.T, m *Machine) Config {
	t.Helper()
	c, err := ConfigByName(m.Topo, "16_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigurations(t *testing.T) {
	topo := topology.Opteron6128()
	cfgs := Configurations(topo)
	if len(cfgs) != 5 {
		t.Fatalf("got %d configurations, want 5", len(cfgs))
	}
	wantThreads := map[string]int{
		"16_threads_4_nodes": 16,
		"8_threads_4_nodes":  8,
		"8_threads_2_nodes":  8,
		"4_threads_4_nodes":  4,
		"4_threads_1_nodes":  4,
	}
	for _, c := range cfgs {
		if got := c.Threads(); got != wantThreads[c.Name] {
			t.Errorf("%s has %d threads", c.Name, got)
		}
		for _, core := range c.Cores {
			if !topo.ValidCore(core) {
				t.Errorf("%s pins invalid core %d", c.Name, core)
			}
		}
	}
	// Node coverage checks straight from the paper's definitions.
	nodes := func(c Config) map[topology.NodeID]bool {
		out := map[topology.NodeID]bool{}
		for _, core := range c.Cores {
			out[topo.NodeOfCore(core)] = true
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		nodes int
	}{
		{"16_threads_4_nodes", 4},
		{"8_threads_4_nodes", 4},
		{"8_threads_2_nodes", 2},
		{"4_threads_4_nodes", 4},
		{"4_threads_1_nodes", 1},
	} {
		c, err := ConfigByName(topo, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(nodes(c)); got != tc.nodes {
			t.Errorf("%s spans %d nodes, want %d", tc.name, got, tc.nodes)
		}
	}
	if _, err := ConfigByName(topo, "bogus"); err == nil {
		t.Error("ConfigByName accepted junk")
	}
}

func TestMachineBootsThroughPCI(t *testing.T) {
	mach := testMachine(t)
	if mach.Mapping.NumBankColors() != 128 || mach.Mapping.NumLLCColors() != 32 {
		t.Errorf("mapping colors = %d/%d", mach.Mapping.NumBankColors(), mach.Mapping.NumLLCColors())
	}
	over, err := NewMachine(MachineOptions{MemBytes: 1 << 30, Overlapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if over.Mapping.NumBankColors() != 128 {
		t.Errorf("overlapped colors = %d", over.Mapping.NumBankColors())
	}
}

func TestLatencyIncreasesWithHops(t *testing.T) {
	mach := testMachine(t)
	r, err := RunLatency(mach, 0, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("latency rows = %d", len(r.Rows))
	}
	// Paper claim (1): local controller latency is much lower than
	// remote. Latency must be non-decreasing in hop distance.
	for i := 1; i < len(r.Rows); i++ {
		a, b := r.Rows[i-1], r.Rows[i]
		if b.Hops >= a.Hops && b.Cycles < a.Cycles {
			t.Errorf("node %d (%d hops) faster than node %d (%d hops): %.1f < %.1f",
				b.Node, b.Hops, a.Node, a.Hops, b.Cycles, a.Cycles)
		}
	}
	if r.Rows[3].Cycles < r.Rows[0].Cycles*1.3 {
		t.Errorf("3-hop latency %.1f not clearly above local %.1f",
			r.Rows[3].Cycles, r.Rows[0].Cycles)
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	if !strings.Contains(sb.String(), "hops") {
		t.Error("WriteTable produced no header")
	}
}

// TestPaperShapeLBM asserts the paper's headline cell (lbm at
// 16 threads / 4 nodes): MEM+LLC < buddy < BPM for runtime, idle
// reduced, per-thread balance improved.
func TestPaperShapeLBM(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	mach := testMachine(t)
	cfg := cfg16(t, mach)
	params := workload.Params{Seed: 1, Scale: shapeScale}

	run := func(p policy.Policy) RunMetrics {
		m, err := Run(mach, RunSpec{Workload: workload.LBM(), Config: cfg, Policy: p, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	buddy := run(policy.Buddy)
	memllc := run(policy.MEMLLC)
	bpm := run(policy.BPM)

	if !(memllc.Runtime < buddy.Runtime) {
		t.Errorf("MEM+LLC runtime %d not below buddy %d", memllc.Runtime, buddy.Runtime)
	}
	if !(buddy.Runtime < bpm.Runtime) {
		t.Errorf("BPM runtime %d not above buddy %d (controller-oblivious penalty missing)",
			bpm.Runtime, buddy.Runtime)
	}
	if !(memllc.TotalIdle < buddy.TotalIdle) {
		t.Errorf("MEM+LLC idle %d not below buddy %d", memllc.TotalIdle, buddy.TotalIdle)
	}
	// Balance: buddy's max-min thread-runtime spread exceeds MEM+LLC's.
	if !(Spread(buddy.ThreadRuntime) > Spread(memllc.ThreadRuntime)) {
		t.Errorf("buddy spread %d not above MEM+LLC spread %d",
			Spread(buddy.ThreadRuntime), Spread(memllc.ThreadRuntime))
	}
	// Mechanism evidence: coloring removes remote DRAM accesses.
	if memllc.RemoteDRAMFrac != 0 {
		t.Errorf("MEM+LLC remote fraction = %.3f, want 0", memllc.RemoteDRAMFrac)
	}
	if bpm.RemoteDRAMFrac < 0.5 {
		t.Errorf("BPM remote fraction = %.3f, want most accesses remote", bpm.RemoteDRAMFrac)
	}
}

// TestGainGrowsWithParallelism asserts the paper's observation that
// 16_threads_4_nodes sees a larger MEM+LLC gain than 4_threads_1_nodes.
func TestGainGrowsWithParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	mach := testMachine(t)
	params := workload.Params{Seed: 1, Scale: shapeScale}
	ratio := func(cfgName string) float64 {
		cfg, err := ConfigByName(mach.Topo, cfgName)
		if err != nil {
			t.Fatal(err)
		}
		buddy, err := Run(mach, RunSpec{Workload: workload.LBM(), Config: cfg, Policy: policy.Buddy, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		colored, err := Run(mach, RunSpec{Workload: workload.LBM(), Config: cfg, Policy: policy.MEMLLC, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		return float64(colored.Runtime) / float64(buddy.Runtime)
	}
	big := ratio("16_threads_4_nodes")
	small := ratio("4_threads_1_nodes")
	if !(big < small) {
		t.Errorf("MEM+LLC gain at 16t4n (ratio %.3f) not larger than at 4t1n (%.3f)", big, small)
	}
}

func TestRunRepeatedSummaries(t *testing.T) {
	mach := testMachine(t)
	cfg, err := ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := RunRepeated(mach, RunSpec{
		Workload: workload.Synthetic(), Config: cfg,
		Policy: policy.MEMLLC, Params: workload.Params{Seed: 1, Scale: 0.1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Runtime.N != 3 {
		t.Errorf("summary N = %d, want 3", cell.Runtime.N)
	}
	if cell.Runtime.Min > cell.Runtime.Mean || cell.Runtime.Mean > cell.Runtime.Max {
		t.Errorf("summary ordering broken: %+v", cell.Runtime)
	}
	// Churn-seed variation must actually produce spread.
	if cell.Runtime.Spread() == 0 {
		t.Error("repeats produced identical runtimes; error bars are fake")
	}
	if len(cell.Last.ThreadRuntime) != 4 {
		t.Errorf("per-thread vector = %d entries", len(cell.Last.ThreadRuntime))
	}
}

func TestSpreadAndMaxOf(t *testing.T) {
	if Spread(nil) != 0 || MaxOf(nil) != 0 {
		t.Error("empty vectors")
	}
	v := []clock.Dur{5, 2, 9, 3}
	if Spread(v) != 7 || MaxOf(v) != 9 {
		t.Errorf("Spread/MaxOf = %d/%d", Spread(v), MaxOf(v))
	}
}

// fakeCell fabricates a cell for the view constructors' tests: no
// simulation, just a spec and one runtime/idle sample.
func fakeCell(wl, cfg string, p policy.Policy, runtime, idle float64) Cell {
	return Cell{
		Spec:    RunSpec{Workload: workload.Workload{Name: wl}, Config: Config{Name: cfg}, Policy: p},
		Runtime: stats.Summarize([]float64{runtime}),
		Idle:    stats.Summarize([]float64{idle}),
		Ops:     1,
	}
}

// NewSuiteResult must start a row at each new (config, workload) of
// the canonical cell order and fold the "other best" bar in that
// order, ties going to the earlier policy.
func TestNewSuiteResult(t *testing.T) {
	others := []policy.Policy{policy.MEMOnly, policy.LLCOnly, policy.MEMLLCPart, policy.LLCMEMPart}
	type rowWant struct {
		cfg, wl   string
		otherRT   []float64 // runtimes of others, in order
		wantOther policy.Policy
	}
	rows := []rowWant{
		{"4_threads_1_nodes", "lbm", []float64{90, 80, 70, 60}, policy.LLCMEMPart},
		{"4_threads_1_nodes", "art", []float64{50, 80, 70, 60}, policy.MEMOnly},
		{"4_threads_4_nodes", "lbm", []float64{90, 40, 40, 60}, policy.LLCOnly},
		{"4_threads_4_nodes", "art", []float64{90, 80, 30, 60}, policy.MEMLLCPart},
	}
	var cells []Cell
	for _, r := range rows {
		cells = append(cells,
			fakeCell(r.wl, r.cfg, policy.Buddy, 100, 10),
			fakeCell(r.wl, r.cfg, policy.BPM, 120, 12),
			fakeCell(r.wl, r.cfg, policy.MEMLLC, 70, 5))
		for i, p := range others {
			cells = append(cells, fakeCell(r.wl, r.cfg, p, r.otherRT[i], 1))
		}
	}
	s := NewSuiteResult(cells)
	if s.Ops != uint64(len(cells)) {
		t.Errorf("Ops = %d, want %d", s.Ops, len(cells))
	}
	if len(s.Rows) != len(rows) {
		t.Fatalf("%d rows, want %d", len(s.Rows), len(rows))
	}
	for i, want := range rows {
		got := s.Rows[i]
		if got.Config != want.cfg || got.Workload != want.wl {
			t.Errorf("row %d is %s/%s, want %s/%s", i, got.Config, got.Workload, want.cfg, want.wl)
		}
		if got.Buddy.Runtime.Mean != 100 || got.BPM.Runtime.Mean != 120 || got.MEMLLC.Runtime.Mean != 70 {
			t.Errorf("row %d fixed bars misplaced: %+v", i, got)
		}
		if got.OtherPolicy != want.wantOther || got.Other.Spec.Policy != want.wantOther {
			t.Errorf("row %d other = %s, want %s", i, got.OtherPolicy, want.wantOther)
		}
		if n := got.NormRuntime(got.MEMLLC); n != 0.7 {
			t.Errorf("row %d MEM+LLC normalizes to %v, want 0.7", i, n)
		}
	}
}

func TestChartsRender(t *testing.T) {
	var cells []Cell
	for i, p := range []policy.Policy{policy.Buddy, policy.BPM, policy.MEMLLC, policy.MEMOnly} {
		cells = append(cells, fakeCell("synthetic", "4_threads_4_nodes", p, float64(100-10*i), 10))
	}
	var sb strings.Builder
	NewFig10Result(cells).WriteChart(&sb)
	if !strings.Contains(sb.String(), "█") {
		t.Error("fig10 chart drew no bars")
	}
	suite := NewSuiteResult(cells)
	sb.Reset()
	suite.WriteRuntimeChart(&sb)
	suite.WriteIdleChart(&sb)
	out := sb.String()
	if !strings.Contains(out, "Fig. 11") || !strings.Contains(out, "Fig. 12") {
		t.Error("suite charts incomplete")
	}
	// Extreme values clip with a marker instead of overflowing.
	if got := bar(1000); !strings.HasSuffix(got, "▶") {
		t.Errorf("oversized bar not clipped: %q", got)
	}
	if bar(-1) != "" {
		t.Errorf("negative bar rendered: %q", bar(-1))
	}
}

func TestRunSweep(t *testing.T) {
	r, err := RunSweep(SweepHopCycles, []float64{0, 50}, workload.Synthetic(),
		"4_threads_4_nodes", workload.Params{Seed: 1, Scale: 0.1}, 1, 1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("sweep points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Buddy.Mean <= 0 || p.MEMLLC.Mean <= 0 || p.RatioMean <= 0 {
			t.Errorf("degenerate sweep point %+v", p)
		}
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	r.WriteChart(&sb)
	if !strings.Contains(sb.String(), "hop-cycles") {
		t.Error("sweep outputs missing parameter name")
	}
	// Unknown parameter and bad values are rejected.
	if _, err := RunSweep(SweepParam("nope"), []float64{1}, workload.Synthetic(),
		"4_threads_4_nodes", workload.Params{Seed: 1, Scale: 0.1}, 1, 1<<30, 1); err == nil {
		t.Error("RunSweep accepted unknown parameter")
	}
	if _, err := RunSweep(SweepLLCWays, []float64{0}, workload.Synthetic(),
		"4_threads_4_nodes", workload.Params{Seed: 1, Scale: 0.1}, 1, 1<<30, 1); err == nil {
		t.Error("RunSweep accepted 0 LLC ways")
	}
}

// TestPaperClaimsValidation grades every quantified claim of the
// evaluation section against fresh measurements (the harness behind
// cmd/tintreport). Reduced scale keeps the run fast; the claims are
// scale-robust from ~0.4 up.
func TestPaperClaimsValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("claim validation skipped in -short mode")
	}
	mach := testMachine(t)
	rep, err := RunPaperValidation(mach, workload.Params{Seed: 1, Scale: shapeScale}, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 10 {
		t.Fatalf("only %d claims graded", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Pass {
			t.Errorf("claim %q failed: expected %s, measured %s", r.ID, r.Expected, r.Measured)
		}
	}
	var sb strings.Builder
	rep.WriteMarkdown(&sb)
	if !strings.Contains(sb.String(), "claims satisfied") {
		t.Error("markdown report incomplete")
	}
}
