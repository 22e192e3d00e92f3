package bench

import (
	"errors"
	"fmt"
	"io"
	"reflect"

	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The chaos harness: every workload of the suite runs once clean and
// once under each named fault plan (internal/fault), with the
// invariant auditor wired to the engine so bookkeeping is re-checked
// after every phase. Each cell is executed twice and the two runs are
// compared field-for-field — a chaos run that is not byte-identical
// under a fixed seed is itself a bug, per the determinism contract
// the injector is built around.

// ChaosRow is one (workload, plan) cell of the chaos matrix.
type ChaosRow struct {
	Workload string
	Plan     string // "clean" for the no-fault baseline
	// OOM reports that the run died of machine-wide exhaustion under
	// the plan (possible when a plan makes every zone of a request
	// refuse at once); metrics other than Kern/Inj are then zero.
	OOM     bool
	Metrics RunMetrics
	Kern    kernel.Stats
	Inj     fault.Stats
	Loans   int // loans still outstanding at run end
	Audits  int // invariant audits passed (one per engine phase)
}

// DegradedTotal sums the row's ladder allocations across rungs.
func (r *ChaosRow) DegradedTotal() uint64 {
	var t uint64
	for _, n := range r.Kern.DegradedAllocs {
		t += n
	}
	return t
}

// DegradedRate returns ladder allocations as a fraction of all page
// faults served.
func (r *ChaosRow) DegradedRate() float64 {
	return stats.Ratio(float64(r.DegradedTotal()), float64(r.Kern.Faults))
}

// ChaosResult is the full chaos matrix for one configuration/policy.
type ChaosResult struct {
	Config Config
	Policy string
	Plans  []fault.Plan
	// Rows is workload-major: for each workload, the clean baseline
	// followed by one row per plan, in Plans order.
	Rows []ChaosRow
}

// baseline returns the clean row for a workload.
func (c *ChaosResult) baseline(wl string) *ChaosRow {
	for i := range c.Rows {
		if c.Rows[i].Workload == wl && c.Rows[i].Plan == "clean" {
			return &c.Rows[i]
		}
	}
	return nil
}

// VsClean returns the row's runtime relative to its workload's clean
// baseline (NaN when the baseline is missing or the row OOMed).
func (c *ChaosResult) VsClean(r *ChaosRow) float64 {
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

// runChaosCell executes one cell with the auditor attached and, when
// plan is non-nil, the fault injector wired into the fresh kernel.
func runChaosCell(mach *Machine, spec RunSpec, plan *fault.Plan) (ChaosRow, error) {
	row := ChaosRow{Workload: spec.Workload.Name, Plan: "clean"}
	var (
		inj     *fault.Injector
		kk      *kernel.Kernel
		wireErr error
	)
	m, err := RunInstrumented(mach, spec, func(k *kernel.Kernel, e *engine.Engine) {
		kk = k
		if plan != nil {
			row.Plan = plan.Name
			inj = fault.New(chaosSeed(spec.Params.Seed, plan.Name), *plan)
			if werr := inj.Wire(k); werr != nil {
				wireErr = werr
				return
			}
		}
		e.SetAuditHook(func() error {
			row.Audits++
			return invariant.Audit(k).Err()
		})
	})
	if wireErr != nil {
		return row, wireErr
	}
	if kk != nil {
		row.Kern = kk.Stats()
		row.Loans = kk.Loans()
	}
	if inj != nil {
		row.Inj = inj.Stats()
	}
	switch {
	case err == nil:
		row.Metrics = m
	case plan != nil && errors.Is(err, kernel.ErrNoMemory):
		// Under an injected plan, machine-wide OOM is a legitimate —
		// and deterministic — outcome, not a harness failure.
		row.OOM = true
		row.Metrics = RunMetrics{}
	default:
		return row, err
	}
	return row, nil
}

// RunChaos executes the chaos matrix: each workload clean and under
// every plan, up to `workers` cells concurrently through the shared
// scatter/gather runner. Every cell runs twice and the harness fails
// if the repetitions differ anywhere — the determinism assertion the
// fault injector's contract promises.
func RunChaos(mach *Machine, cfg Config, pol string, loads []workload.Workload,
	plans []fault.Plan, params workload.Params, workers int) (*ChaosResult, error) {
	p, err := policyByName(pol)
	if err != nil {
		return nil, err
	}
	out := &ChaosResult{Config: cfg, Policy: pol, Plans: plans}
	perWl := len(plans) + 1
	rows, err := Gather(len(loads)*perWl, workers, func(i int) (ChaosRow, error) {
		wl := loads[i/perWl]
		var plan *fault.Plan
		if pi := i % perWl; pi > 0 {
			plan = &plans[pi-1]
		}
		spec := RunSpec{Workload: wl, Config: cfg, Policy: p, Params: params}
		first, err := runChaosCell(mach, spec, plan)
		if err != nil {
			return first, err
		}
		again, err := runChaosCell(mach, spec, plan)
		if err != nil {
			return first, err
		}
		if !reflect.DeepEqual(first, again) {
			return first, fmt.Errorf("bench: chaos cell %s/%s is nondeterministic: %+v != %+v",
				wl.Name, first.Plan, first, again)
		}
		return first, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// policyByName resolves a policy string against policy.All().
func policyByName(name string) (policy.Policy, error) {
	for _, p := range policy.All() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("bench: unknown policy %q", name)
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
