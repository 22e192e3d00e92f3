package bench

import (
	"fmt"
	"io"

	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// Structured validation of the paper's quantitative claims: each
// Claim encodes one sentence of the evaluation section as a checkable
// predicate over fresh measurements. RunPaperValidation re-runs the
// experiments and grades every claim, producing the paper-vs-measured
// evidence behind EXPERIMENTS.md in one command (cmd/tintreport).

// ClaimResult grades one claim.
type ClaimResult struct {
	ID       string
	Claim    string // the paper's statement
	Expected string // the quantitative expectation checked
	Measured string
	Pass     bool
}

// ValidationReport is the full grading.
type ValidationReport struct {
	Results []ClaimResult
}

// Passed counts satisfied claims.
func (v *ValidationReport) Passed() int {
	n := 0
	for _, r := range v.Results {
		if r.Pass {
			n++
		}
	}
	return n
}

// RunPaperValidation executes the experiments backing every graded
// claim, running up to `workers` independent cells concurrently
// (byte-identical grading at any value). scale trades fidelity for
// speed (1.0 = paper size; the claims hold from ~0.4 upward).
func RunPaperValidation(mach *Machine, params workload.Params, repeats, workers int, w io.Writer) (*ValidationReport, error) {
	progress := func(format string, args ...any) {
		if w != nil {
			fmt.Fprintf(w, format, args...)
		}
	}
	rep := &ValidationReport{}
	add := func(id, claim, expected, measured string, pass bool) {
		rep.Results = append(rep.Results, ClaimResult{
			ID: id, Claim: claim, Expected: expected, Measured: measured, Pass: pass,
		})
	}

	cfg16, err := ConfigByName(mach.Topo, "16_threads_4_nodes")
	if err != nil {
		return nil, err
	}
	cfg4, err := ConfigByName(mach.Topo, "4_threads_1_nodes")
	if err != nil {
		return nil, err
	}

	// Claim 1: local controller latency is much lower than remote.
	progress("measuring latency primer...\n")
	lat, err := RunLatency(mach, 0, 256, workers)
	if err != nil {
		return nil, err
	}
	local, far := lat.Rows[0].Cycles, lat.Rows[len(lat.Rows)-1].Cycles
	add("latency",
		"the latency of local memory controller accesses is much lower than that of remote accesses (Sec. V claim 1)",
		"3-hop latency >= 1.3x local",
		fmt.Sprintf("local %.1f cycles, 3-hop %.1f cycles (%.2fx)", local, far, far/local),
		far >= 1.3*local)

	// Claim 2: synthetic benchmark — MEM, LLC and MEM/LLC coloring
	// all reduce execution time, MEM/LLC the most.
	progress("running Fig. 10 synthetic sweep...\n")
	f10, err := RunFig10(mach, cfg16, params, repeats, workers)
	if err != nil {
		return nil, err
	}
	runtimes := map[policy.Policy]float64{}
	for i, p := range f10.Policies {
		runtimes[p] = f10.Cells[i].Runtime.Mean
	}
	buddy := runtimes[policy.Buddy]
	pass := runtimes[policy.LLCOnly] < buddy && runtimes[policy.MEMOnly] < buddy &&
		runtimes[policy.MEMLLC] < buddy &&
		runtimes[policy.MEMLLC] <= runtimes[policy.LLCOnly] &&
		runtimes[policy.MEMLLC] <= runtimes[policy.MEMOnly]
	add("fig10",
		"MEM, LLC and MEM/LLC coloring all reduce the synthetic benchmark's execution time; MEM/LLC is shortest (Fig. 10)",
		"MEM+LLC < {LLC, MEM} < buddy",
		fmt.Sprintf("buddy %.3g, LLC %.3g, MEM %.3g, MEM+LLC %.3g",
			buddy, runtimes[policy.LLCOnly], runtimes[policy.MEMOnly], runtimes[policy.MEMLLC]),
		pass)

	// Claims 3-6 need the headline cell and the small configuration —
	// five independent cells, gathered concurrently.
	progress("running lbm cells (16_threads_4_nodes, 4_threads_1_nodes)...\n")
	lbm := workload.LBM()
	lbmSpecs := []RunSpec{
		{Workload: lbm, Config: cfg16, Policy: policy.Buddy, Params: params},
		{Workload: lbm, Config: cfg16, Policy: policy.MEMLLC, Params: params},
		{Workload: lbm, Config: cfg16, Policy: policy.BPM, Params: params},
		{Workload: lbm, Config: cfg4, Policy: policy.Buddy, Params: params},
		{Workload: lbm, Config: cfg4, Policy: policy.MEMLLC, Params: params},
	}
	lbmCells, err := Gather(len(lbmSpecs), workers, func(i int) (RunMetrics, error) {
		return Run(mach, lbmSpecs[i])
	})
	if err != nil {
		return nil, err
	}
	b16, c16, p16, b4, c4 := lbmCells[0], lbmCells[1], lbmCells[2], lbmCells[3], lbmCells[4]

	ratio16 := float64(c16.Runtime) / float64(b16.Runtime)
	add("lbm-runtime",
		"TintMalloc reduces the runtime of parallel programs; up to ~30% for SPEC/lbm at 16 threads / 4 nodes (Fig. 11)",
		"MEM+LLC/buddy runtime ratio in (0.5, 0.95)",
		fmt.Sprintf("ratio %.3f (paper ~0.70)", ratio16),
		ratio16 > 0.5 && ratio16 < 0.95)

	add("bpm",
		"BPM always results in longer runtimes than our coloring approach and the standard buddy allocator (Sec. V-B)",
		"BPM runtime > buddy > MEM+LLC",
		fmt.Sprintf("BPM %.3gx buddy; MEM+LLC %.3gx buddy",
			float64(p16.Runtime)/float64(b16.Runtime), ratio16),
		p16.Runtime > b16.Runtime && c16.Runtime < b16.Runtime)

	idleRatio := float64(c16.TotalIdle) / float64(b16.TotalIdle)
	add("lbm-idle",
		"MEM+LLC coloring results in up to 74.3% lower idle time for 16_threads_4_nodes (Fig. 12)",
		"idle ratio < 0.6",
		fmt.Sprintf("idle ratio %.3f (paper 0.257)", idleRatio),
		idleRatio < 0.6)

	spreadRatio := float64(Spread(b16.ThreadRuntime)) / float64(Spread(c16.ThreadRuntime))
	add("lbm-balance",
		"the max-min thread runtime spread under buddy is 4.38x larger than under MEM+LLC for lbm (Fig. 13)",
		"spread ratio > 2",
		fmt.Sprintf("spread ratio %.2fx (paper 4.38x)", spreadRatio),
		spreadRatio > 2)

	maxDrop := 1 - float64(MaxOf(c16.ThreadRuntime))/float64(MaxOf(b16.ThreadRuntime))
	add("lbm-maxthread",
		"the maximum thread runtime under MEM+LLC is 30.77% smaller than under buddy (Fig. 13)",
		"slowest thread >= 15% faster",
		fmt.Sprintf("%.1f%% faster (paper 30.8%%)", maxDrop*100),
		maxDrop >= 0.15)

	gain16 := 1 - ratio16
	gain4 := 1 - float64(c4.Runtime)/float64(b4.Runtime)
	add("parallelism-scaling",
		"16_threads_4_nodes experiences the largest performance boost (Sec. V-B)",
		"gain(16t4n) > gain(4t1n)",
		fmt.Sprintf("16t4n %.1f%%, 4t1n %.1f%%", gain16*100, gain4*100),
		gain16 > gain4)

	// Claim: blackscholes shows the least improvement of the six.
	progress("running blackscholes cells...\n")
	bsSpecs := []RunSpec{
		{Workload: workload.Blackscholes(), Config: cfg16, Policy: policy.Buddy, Params: params},
		{Workload: workload.Blackscholes(), Config: cfg16, Policy: policy.MEMLLC, Params: params},
	}
	bsCells, err := Gather(len(bsSpecs), workers, func(i int) (RunMetrics, error) {
		return Run(mach, bsSpecs[i])
	})
	if err != nil {
		return nil, err
	}
	bsBuddy, bsColored := bsCells[0], bsCells[1]
	bsGain := 1 - float64(bsColored.Runtime)/float64(bsBuddy.Runtime)
	add("blackscholes",
		"Parsec/blackscholes has the least performance improvement of the six benchmarks (Sec. V-B)",
		"blackscholes MEM+LLC gain < lbm gain",
		fmt.Sprintf("blackscholes %.1f%%, lbm %.1f%%", bsGain*100, gain16*100),
		bsGain < gain16)

	// Mechanism claims.
	add("no-remote",
		"with our approach, accesses to a remote memory node can be avoided for all tasks (Sec. VII)",
		"MEM+LLC remote DRAM fraction == 0",
		fmt.Sprintf("remote fraction %.3f", c16.RemoteDRAMFrac),
		c16.RemoteDRAMFrac == 0)
	add("bpm-remote",
		"with BPM, tasks may access remote memory nodes and pay the remote access penalty (Sec. V-B)",
		"BPM remote DRAM fraction > 0.5",
		fmt.Sprintf("remote fraction %.3f", p16.RemoteDRAMFrac),
		p16.RemoteDRAMFrac > 0.5)

	return rep, nil
}

// WriteMarkdown renders the report as a markdown table.
func (v *ValidationReport) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "# Paper-claim validation\n\n")
	fmt.Fprintf(w, "%d of %d claims satisfied.\n\n", v.Passed(), len(v.Results))
	fmt.Fprintf(w, "| # | claim | expectation | measured | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	for _, r := range v.Results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "**FAIL**"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			r.ID, r.Claim, r.Expected, r.Measured, verdict)
	}
}
