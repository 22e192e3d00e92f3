package bench

import (
	"fmt"
	"io"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
)

// Fig10Result holds the synthetic benchmark sweep.
type Fig10Result struct {
	Config   Config
	Policies []policy.Policy
	Cells    []Cell // parallel to Policies
}

// NewFig10Result views one configuration's cells, one per policy, as
// Fig. 10.
func NewFig10Result(cells []Cell) *Fig10Result {
	r := &Fig10Result{Cells: cells}
	for _, c := range cells {
		r.Config = c.Spec.Config
		r.Policies = append(r.Policies, c.Spec.Policy)
	}
	return r
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

// SuiteRow is one (workload, configuration) row of Figs. 11 and 12.
type SuiteRow struct {
	Workload string
	Config   string
	// Buddy, BPM, MEMLLC are the three fixed bars; Other is the paper's
	// "other best coloring solution": the lowest mean runtime of the
	// row's remaining policies.
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

// NewSuiteResult folds cells in the suite runner's canonical order
// (configuration-major, then workload, then policy) into the Figs.
// 11/12 rows, one per run of cells sharing a (configuration,
// workload). The "other best" bar is a fold in that order with ties
// kept by the earlier policy, so it never depends on which cell
// finished first.
func NewSuiteResult(cells []Cell) *SuiteResult {
	s := &SuiteResult{}
	for _, c := range cells {
		s.Ops += c.Ops
		wl, cfg := c.Spec.Workload.Name, c.Spec.Config.Name
		if n := len(s.Rows); n == 0 || s.Rows[n-1].Workload != wl || s.Rows[n-1].Config != cfg {
			s.Rows = append(s.Rows, SuiteRow{Workload: wl, Config: cfg})
		}
		row := &s.Rows[len(s.Rows)-1]
		switch p := c.Spec.Policy; p {
		case policy.Buddy:
			row.Buddy = c
		case policy.BPM:
			row.BPM = c
		case policy.MEMLLC:
			row.MEMLLC = c
		default:
			if row.Other.Runtime.N == 0 || c.Runtime.Mean < row.Other.Runtime.Mean {
				row.Other, row.OtherPolicy = c, p
			}
		}
	}
	return s
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

// NewPerThreadResult views one workload/config's cells, one per
// policy, as Figs. 13 and 14. The vectors are each cell's last
// repetition: the paper's per-thread figures are single
// representative runs, so the registry entry behind them pins
// repeats = 1.
func NewPerThreadResult(cells []Cell) *PerThreadResult {
	r := &PerThreadResult{}
	for _, c := range cells {
		r.Workload, r.Config = c.Spec.Workload.Name, c.Spec.Config
		r.Policies = append(r.Policies, c.Spec.Policy)
		r.Runtime = append(r.Runtime, c.Last.ThreadRuntime)
		r.Idle = append(r.Idle, c.Last.ThreadIdle)
		r.Ops += c.Ops
	}
	return r
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

// WriteTable prints Figs. 13 and 14 as per-thread listings.
func (r *PerThreadResult) WriteTable(w io.Writer) {
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

// NewDetailResult views one workload/config's cells, one per policy,
// as the policy detail table.
func NewDetailResult(cells []Cell) *DetailResult {
	d := &DetailResult{}
	for _, c := range cells {
		d.Workload, d.Config = c.Spec.Workload.Name, c.Spec.Config
		d.Rows = append(d.Rows, DetailRow{Policy: c.Spec.Policy, Cell: c})
	}
	return d
}

// WriteTable prints the per-policy breakdown, then each policy's
// per-thread block.
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
	for _, r := range d.Rows {
		d.writeThreads(w, r)
	}
}

// writeThreads prints one policy's per-thread block from its last
// repetition: the level that served each thread's accesses, the
// remote share of its DRAM reads, and its mean cycles per access with
// the page-fault cycles its accesses waited for counted in.
func (d *DetailResult) writeThreads(w io.Writer, r DetailRow) {
	fmt.Fprintf(w, "\nPer-thread detail — %s (last repetition)\n", r.Policy)
	fmt.Fprintf(w, "%-7s %4s %10s %8s %8s %8s %8s %8s %9s %10s\n",
		"thread", "core", "accesses", "L1", "L2", "L3", "DRAM", "remote%", "avg cyc", "fault cyc")
	row := func(name, core string, st mem.CoreStats, fault clock.Dur) {
		avg := 0.0
		if st.Accesses > 0 {
			avg = float64(st.TotalCycles+fault) / float64(st.Accesses)
		}
		fmt.Fprintf(w, "%-7s %4s %10d %8d %8d %8d %8d %7.1f%% %9.1f %10d\n",
			name, core, st.Accesses, st.L1Hits, st.L2Hits, st.L3Hits, st.DRAMReads,
			st.RemoteFrac()*100, avg, fault)
	}
	var tot mem.CoreStats
	m := r.Cell.Last
	for i, st := range m.ThreadMem {
		row(fmt.Sprintf("t%d", i), fmt.Sprint(d.Config.Cores[i]), st, m.ThreadFaultCycles[i])
		tot.Add(st)
	}
	row("total", "", tot, m.FaultCycles)
}
