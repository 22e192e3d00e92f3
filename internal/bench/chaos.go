package bench

import (
	"fmt"
	"io"

	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The chaos harness: every workload of the suite runs once clean and
// once under each named fault plan (internal/fault), as a static cell
// of the audited runner RunAdaptive: the invariant auditor re-checks
// bookkeeping after every phase, and each cell is executed twice and
// the two runs compared field-for-field (runTwice) — a chaos run that
// is not byte-identical under a fixed seed is itself a bug, per the
// determinism contract the injector is built around.

// ChaosResult is the full chaos matrix for one configuration/policy.
type ChaosResult struct {
	Config Config
	Policy string
	Plans  []fault.Plan
	// Rows is workload-major: for each workload, the clean baseline
	// followed by one row per plan, in Plans order.
	Rows []AdaptiveRow
}

// baseline returns the clean row for a workload.
func (c *ChaosResult) baseline(wl string) *AdaptiveRow {
	for i := range c.Rows {
		if c.Rows[i].Workload == wl && c.Rows[i].Plan == "clean" {
			return &c.Rows[i]
		}
	}
	return nil
}

// VsClean returns the row's runtime relative to its workload's clean
// baseline (NaN when the baseline is missing or the row OOMed).
func (c *ChaosResult) VsClean(r *AdaptiveRow) float64 {
	b := c.baseline(r.Workload)
	if b == nil || r.OOM {
		return stats.NormRatio(0, 0)
	}
	return stats.NormRatio(float64(r.Metrics.Runtime), float64(b.Metrics.Runtime))
}

// chaosSeed derives one cell's injector seed from the run seed and
// plan name, so different plans draw independent decision streams
// from the same base seed.
func chaosSeed(seed int64, plan string) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := 0; i < len(plan); i++ {
		h = (h ^ uint64(plan[i])) * 1099511628211
	}
	return h
}

// RunChaos executes the chaos matrix: each workload clean and under
// every plan, up to `workers` cells concurrently through the shared
// scatter/gather runner. Every cell runs twice and the harness fails
// if the repetitions differ anywhere — the determinism assertion the
// fault injector's contract promises.
func RunChaos(mach *Machine, cfg Config, pol string, loads []workload.Workload,
	plans []fault.Plan, params workload.Params, workers int) (*ChaosResult, error) {
	p, err := policy.ParsePolicy(pol)
	if err != nil {
		return nil, err
	}
	perWl := len(plans) + 1
	rows, err := Gather(len(loads)*perWl, workers, func(i int) (AdaptiveRow, error) {
		opts := AdaptiveOptions{Workload: loads[i/perWl], Config: cfg, Params: params, Initial: p}
		if pi := i % perWl; pi > 0 {
			opts.Plan = &plans[pi-1]
		}
		return runTwice(mach, opts)
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Config: cfg, Policy: pol, Plans: plans, Rows: rows}, nil
}

// WriteTable prints the degradation and divergence-impact tables.
func (c *ChaosResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Chaos — graceful degradation under %s (%s)\n", c.Policy, c.Config.Name)
	fmt.Fprintf(w, "%-10s %-15s %12s %8s %7s %7s %7s %6s %6s %7s %8s %6s\n",
		"workload", "plan", "runtime", "vs-clean",
		"borrow", "localU", "remote", "degr%", "loans", "reclaim", "injected", "audits")
	for i := range c.Rows {
		r := &c.Rows[i]
		runtime, vs := fmt.Sprintf("%d", r.Metrics.Runtime), fmt.Sprintf("%8.3f", c.VsClean(r))
		if r.OOM {
			runtime, vs = "OOM", "     OOM"
		}
		fmt.Fprintf(w, "%-10s %-15s %12s %s %7d %7d %7d %5.1f%% %6d %7d %8d %6d\n",
			r.Workload, r.Plan, runtime, vs,
			r.Kern.DegradedAllocs[kernel.RungBorrowColor],
			r.Kern.DegradedAllocs[kernel.RungLocalUncolored],
			r.Kern.DegradedAllocs[kernel.RungRemote],
			r.DegradedRate()*100, r.Loans,
			r.Kern.LoansReclaimed, r.Inj.TotalInjected(), r.Audits)
	}
	fmt.Fprintf(w, "\nChaos — divergence impact (memory-system view)\n")
	fmt.Fprintf(w, "%-10s %-15s %8s %8s %9s %9s\n",
		"workload", "plan", "remote%", "Δremote", "L3miss%", "rowconf%")
	for i := range c.Rows {
		r := &c.Rows[i]
		if r.OOM {
			fmt.Fprintf(w, "%-10s %-15s %8s %8s %9s %9s\n", r.Workload, r.Plan, "OOM", "-", "-", "-")
			continue
		}
		var delta float64
		if b := c.baseline(r.Workload); b != nil {
			delta = (r.Metrics.RemoteDRAMFrac - b.Metrics.RemoteDRAMFrac) * 100
		}
		fmt.Fprintf(w, "%-10s %-15s %7.1f%% %+7.1f%% %8.1f%% %8.1f%%\n",
			r.Workload, r.Plan,
			r.Metrics.RemoteDRAMFrac*100, delta,
			r.Metrics.L3MissRate*100, r.Metrics.RowConflictFrac*100)
	}
}
