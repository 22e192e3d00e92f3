package bench

import (
	"fmt"
	"io"
	"sort"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// Fig10Policies are the coloring schemes the synthetic benchmark
// compares (paper Fig. 10).
func Fig10Policies() []policy.Policy {
	return []policy.Policy{policy.Buddy, policy.LLCOnly, policy.MEMOnly, policy.MEMLLC}
}

// Fig10Result holds the synthetic benchmark sweep.
type Fig10Result struct {
	Config   Config
	Policies []policy.Policy
	Cells    []Cell // parallel to Policies
}

// RunFig10 executes the synthetic benchmark under each policy, up to
// `workers` cells concurrently (results are identical at any value).
func RunFig10(mach *Machine, cfg Config, params workload.Params, repeats, workers int) (*Fig10Result, error) {
	res := &Fig10Result{Config: cfg, Policies: Fig10Policies()}
	cells, err := Gather(len(res.Policies), workers, func(i int) (Cell, error) {
		return RunRepeated(mach, RunSpec{Workload: workload.Synthetic(), Config: cfg,
			Policy: res.Policies[i], Params: params}, repeats)
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// WriteTable prints Fig. 10 as text: execution time per policy, plus
// the relative saving of MEM+LLC over buddy.
func (r *Fig10Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10 — synthetic benchmark execution time (%s)\n", r.Config.Name)
	fmt.Fprintf(w, "%-14s %15s %15s %15s %10s\n", "policy", "mean cycles", "min", "max", "vs buddy")
	// base is the buddy runtime; if it were ever missing (zero),
	// PercentChange poisons the column with NaN rather than printing a
	// plausible 0% — see the stats package's baseline convention.
	base := r.Cells[0].Runtime.Mean
	for i, p := range r.Policies {
		c := r.Cells[i]
		fmt.Fprintf(w, "%-14s %15.0f %15.0f %15.0f %+9.1f%%\n",
			p.String(), c.Runtime.Mean, c.Runtime.Min, c.Runtime.Max,
			stats.PercentChange(base, c.Runtime.Mean))
	}
}

// BestOtherPolicies are the schemes pooled into the paper's "other
// best coloring solution" bars of Figs. 11-14.
func BestOtherPolicies() []policy.Policy {
	return []policy.Policy{policy.MEMOnly, policy.LLCOnly, policy.MEMLLCPart, policy.LLCMEMPart}
}

// SuiteRow is one (workload, configuration) row of Figs. 11 and 12.
type SuiteRow struct {
	Workload string
	Config   string
	// Buddy, BPM, MEMLLC are the three fixed bars; Other is the
	// best (lowest mean runtime) of BestOtherPolicies.
	Buddy, BPM, MEMLLC, Other Cell
	OtherPolicy               policy.Policy
}

// NormRuntime returns a bar's mean runtime normalized to buddy.
func (r *SuiteRow) NormRuntime(c Cell) float64 {
	return stats.NormRatio(c.Runtime.Mean, r.Buddy.Runtime.Mean)
}

// NormIdle returns a bar's mean total idle normalized to buddy.
func (r *SuiteRow) NormIdle(c Cell) float64 {
	return stats.NormRatio(c.Idle.Mean, r.Buddy.Idle.Mean)
}

// SuiteResult holds the full benchmark matrix behind Figs. 11 and 12.
type SuiteResult struct {
	Rows []SuiteRow
	// Ops counts engine ops across every cell simulated for the
	// matrix, including the "other best" candidates that lose the
	// comparison (perf accounting).
	Ops uint64
}

// RunSuite executes the benchmark suite across the given
// configurations, producing the data behind Figs. 11 (runtime) and
// 12 (idle time).
func RunSuite(mach *Machine, loads []workload.Workload, cfgs []Config,
	params workload.Params, repeats int) (*SuiteResult, error) {
	return RunSuiteParallel(mach, loads, cfgs, params, repeats, 1)
}

// RunSuiteParallel is RunSuite with up to `workers` cells simulated
// concurrently through the shared scatter/gather runner. Every cell
// builds fully independent machine state, and the aged-zone prototype
// cache is mutex-guarded, so parallel execution produces bit-identical
// results to sequential execution — it only uses more host cores.
func RunSuiteParallel(mach *Machine, loads []workload.Workload, cfgs []Config,
	params workload.Params, repeats, workers int) (*SuiteResult, error) {
	type cellJob struct {
		row, slot int // slot: 0 buddy, 1 BPM, 2 MEMLLC, 3.. others
		spec      RunSpec
	}
	others := BestOtherPolicies()
	var jobs []cellJob
	out := &SuiteResult{}
	for _, cfg := range cfgs {
		for _, wl := range loads {
			r := len(out.Rows)
			out.Rows = append(out.Rows, SuiteRow{Workload: wl.Name, Config: cfg.Name})
			fixed := []policy.Policy{policy.Buddy, policy.BPM, policy.MEMLLC}
			for slot, p := range append(fixed, others...) {
				jobs = append(jobs, cellJob{row: r, slot: slot,
					spec: RunSpec{Workload: wl, Config: cfg, Policy: p, Params: params}})
			}
		}
	}

	cells, err := Gather(len(jobs), workers, func(i int) (Cell, error) {
		c, err := RunRepeated(mach, jobs[i].spec, repeats)
		if err != nil {
			return c, fmt.Errorf("bench: cell %s/%s/%s: %w",
				jobs[i].spec.Workload.Name, jobs[i].spec.Config.Name, jobs[i].spec.Policy, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	// Merge in canonical (index) order: the "other best" winner is a
	// pure fold over the fixed slot order, so it cannot depend on
	// which goroutine finished first.
	for i, j := range jobs {
		out.Ops += cells[i].Ops
		row := &out.Rows[j.row]
		switch j.slot {
		case 0:
			row.Buddy = cells[i]
		case 1:
			row.BPM = cells[i]
		case 2:
			row.MEMLLC = cells[i]
		default:
			p := others[j.slot-3]
			if j.slot == 3 || cells[i].Runtime.Mean < row.Other.Runtime.Mean {
				row.Other, row.OtherPolicy = cells[i], p
			}
		}
	}
	return out, nil
}

// Row finds a row by workload and configuration name.
func (s *SuiteResult) Row(workloadName, configName string) (SuiteRow, bool) {
	for _, r := range s.Rows {
		if r.Workload == workloadName && r.Config == configName {
			return r, true
		}
	}
	return SuiteRow{}, false
}

// WriteRuntimeTable prints the Fig. 11 matrix: runtimes normalized to
// buddy.
func (s *SuiteResult) WriteRuntimeTable(w io.Writer) {
	fmt.Fprintln(w, "Fig. 11 — benchmark runtime normalized to buddy")
	s.writeNormTable(w, func(r *SuiteRow, c Cell) float64 { return r.NormRuntime(c) })
}

// WriteIdleTable prints the Fig. 12 matrix: total idle time
// normalized to buddy.
func (s *SuiteResult) WriteIdleTable(w io.Writer) {
	fmt.Fprintln(w, "Fig. 12 — total idle time normalized to buddy")
	s.writeNormTable(w, func(r *SuiteRow, c Cell) float64 { return r.NormIdle(c) })
}

func (s *SuiteResult) writeNormTable(w io.Writer, norm func(*SuiteRow, Cell) float64) {
	fmt.Fprintf(w, "%-20s %-13s %7s %7s %8s %8s %s\n",
		"config", "benchmark", "buddy", "BPM", "MEM+LLC", "other", "(other policy)")
	for i := range s.Rows {
		r := &s.Rows[i]
		fmt.Fprintf(w, "%-20s %-13s %7.3f %7.3f %8.3f %8.3f (%s)\n",
			r.Config, r.Workload,
			norm(r, r.Buddy), norm(r, r.BPM), norm(r, r.MEMLLC), norm(r, r.Other),
			r.OtherPolicy)
	}
}

// PerThreadResult holds Figs. 13 and 14: per-thread runtime and idle
// under each policy for one workload/config.
type PerThreadResult struct {
	Workload string
	Config   Config
	Policies []policy.Policy
	// Runtime[i][t] is thread t's parallel-section runtime under
	// Policies[i]; Idle likewise.
	Runtime [][]clock.Dur
	Idle    [][]clock.Dur
	// Ops counts engine ops across the policy runs (perf accounting).
	Ops uint64
}

// RunPerThread executes one workload/config under the given policies
// — up to `workers` concurrently — and records per-thread vectors
// (single run; the paper's per-thread figures are representative
// runs).
func RunPerThread(mach *Machine, wl workload.Workload, cfg Config,
	policies []policy.Policy, params workload.Params, workers int) (*PerThreadResult, error) {
	out := &PerThreadResult{Workload: wl.Name, Config: cfg, Policies: policies}
	ms, err := Gather(len(policies), workers, func(i int) (RunMetrics, error) {
		return Run(mach, RunSpec{Workload: wl, Config: cfg, Policy: policies[i], Params: params})
	})
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		out.Runtime = append(out.Runtime, m.ThreadRuntime)
		out.Idle = append(out.Idle, m.ThreadIdle)
		out.Ops += m.Ops
	}
	return out, nil
}

// Spread returns (max-min)/... for a per-thread vector: the paper's
// imbalance measure (difference between slowest and fastest thread).
func Spread(v []clock.Dur) clock.Dur {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, d := range v {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return hi - lo
}

// MaxOf returns the slowest thread's value.
func MaxOf(v []clock.Dur) clock.Dur {
	var m clock.Dur
	for _, d := range v {
		if d > m {
			m = d
		}
	}
	return m
}

// WriteTables prints Figs. 13 and 14 as per-thread listings.
func (r *PerThreadResult) WriteTables(w io.Writer) {
	fmt.Fprintf(w, "Fig. 13 — per-thread runtime, %s (%s)\n", r.Workload, r.Config.Name)
	r.writeVec(w, r.Runtime)
	fmt.Fprintf(w, "Fig. 14 — per-thread idle time, %s (%s)\n", r.Workload, r.Config.Name)
	r.writeVec(w, r.Idle)
}

func (r *PerThreadResult) writeVec(w io.Writer, vecs [][]clock.Dur) {
	fmt.Fprintf(w, "%-14s", "policy")
	for t := 0; t < r.Config.Threads(); t++ {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("t%d", t))
	}
	fmt.Fprintf(w, " %9s\n", "max-min")
	for i, p := range r.Policies {
		fmt.Fprintf(w, "%-14s", p.String())
		for _, d := range vecs[i] {
			fmt.Fprintf(w, " %9d", d)
		}
		fmt.Fprintf(w, " %9d\n", Spread(vecs[i]))
	}
}

// SortPoliciesForDisplay orders policies as in the paper's legends.
func SortPoliciesForDisplay(ps []policy.Policy) {
	order := map[policy.Policy]int{
		policy.Buddy: 0, policy.BPM: 1, policy.MEMLLC: 2,
		policy.MEMOnly: 3, policy.LLCOnly: 4, policy.MEMLLCPart: 5, policy.LLCMEMPart: 6,
	}
	sort.Slice(ps, func(i, j int) bool { return order[ps[i]] < order[ps[j]] })
}

// DetailRow is one policy's full diagnostics for a workload/config.
type DetailRow struct {
	Policy policy.Policy
	Cell   Cell
}

// DetailResult compares every coloring policy on one cell, with the
// memory-system diagnostics that explain the differences.
type DetailResult struct {
	Workload string
	Config   Config
	Rows     []DetailRow
}

// RunDetail executes one workload/config under every policy, up to
// `workers` cells concurrently.
func RunDetail(mach *Machine, wl workload.Workload, cfg Config,
	params workload.Params, repeats, workers int) (*DetailResult, error) {
	out := &DetailResult{Workload: wl.Name, Config: cfg}
	pols := policy.All()
	cells, err := Gather(len(pols), workers, func(i int) (Cell, error) {
		return RunRepeated(mach, RunSpec{Workload: wl, Config: cfg, Policy: pols[i], Params: params}, repeats)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range pols {
		out.Rows = append(out.Rows, DetailRow{Policy: p, Cell: cells[i]})
	}
	return out, nil
}

// WriteTable prints the per-policy breakdown.
func (d *DetailResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Policy detail — %s (%s)\n", d.Workload, d.Config.Name)
	fmt.Fprintf(w, "%-14s %9s %9s %8s %8s %8s\n",
		"policy", "runtime", "idle", "remote%", "L3miss%", "rowconf%")
	base := d.Rows[0].Cell
	for _, r := range d.Rows {
		fmt.Fprintf(w, "%-14s %9.3f %9.3f %7.1f%% %7.1f%% %7.1f%%\n",
			r.Policy.String(),
			stats.NormRatio(r.Cell.Runtime.Mean, base.Runtime.Mean),
			stats.NormRatio(r.Cell.Idle.Mean, base.Idle.Mean),
			r.Cell.Last.RemoteDRAMFrac*100,
			r.Cell.Last.L3MissRate*100,
			r.Cell.Last.RowConflictFrac*100)
	}
}
