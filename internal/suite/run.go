package suite

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// Result holds a full suite run in canonical cell order:
// configuration-major, then workload, then policy (the order
// bench.NewSuiteResult folds into the Figs. 11/12 rows). Each cell
// carries its Spec, which names its workload, config and policy.
type Result struct {
	Suite   string
	Repeats int
	Params  workload.Params
	Cells   []bench.Cell
	// Ops totals engine ops across every cell (perf accounting).
	Ops uint64
}

// Effective applies the suite's run-parameter overrides over the
// runner's defaults: entry values of zero defer to base/repeats.
func (s Suite) Effective(base workload.Params, repeats int) (workload.Params, int) {
	if s.Scale > 0 {
		base.Scale = s.Scale
	}
	if s.Seed != 0 {
		base.Seed = s.Seed
	}
	if s.Repeats > 0 {
		repeats = s.Repeats
	}
	return base, repeats
}

// Run executes every cell of the suite's workload × config × policy
// matrix, up to `workers` cells concurrently through the bench
// scatter/gather runner — results are byte-identical at any worker
// count. base and repeats are the runner defaults the suite entry may
// override (Effective).
func Run(mach *bench.Machine, s Suite, base workload.Params, repeats, workers int) (*Result, error) {
	params, reps := s.Effective(base, repeats)

	loads := make([]workload.Workload, len(s.Workloads))
	for i, w := range s.Workloads {
		wl, err := w.Resolve()
		if err != nil {
			return nil, fieldErr(s.Name, "workload", "%q: %v", w.InstanceName(), err)
		}
		loads[i] = wl
	}
	var specs []bench.RunSpec
	for _, cname := range s.Configs {
		cfg, err := bench.ConfigByName(mach.Topo, cname)
		if err != nil {
			return nil, fieldErr(s.Name, "configs", "%v", err)
		}
		for _, wl := range loads {
			for _, pname := range s.Policies {
				pol, err := policy.ParsePolicy(pname)
				if err != nil {
					return nil, fieldErr(s.Name, "policies", "%v", err)
				}
				specs = append(specs, bench.RunSpec{Workload: wl, Config: cfg, Policy: pol, Params: params})
			}
		}
	}

	cells, err := bench.Gather(len(specs), workers, func(i int) (bench.Cell, error) {
		sp := specs[i]
		c, err := bench.RunRepeated(mach, sp, reps)
		if err != nil {
			return c, fmt.Errorf("suite: %s: cell %s/%s/%s: %w",
				s.Name, sp.Workload.Name, sp.Config.Name, sp.Policy, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	out := &Result{Suite: s.Name, Repeats: reps, Params: params, Cells: cells}
	for _, c := range cells {
		out.Ops += c.Ops
	}
	return out, nil
}

// WriteTable prints the suite matrix with per-cell runtime and idle
// summaries, normalizing each (workload, config) group to its first
// policy's mean runtime.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Suite %s — %d repeats, scale %g, seed %d\n",
		r.Suite, r.Repeats, r.Params.Scale, r.Params.Seed)
	fmt.Fprintf(w, "%-20s %-14s %-14s %13s %13s %13s %8s\n",
		"config", "workload", "policy", "runtime mean", "min", "max", "vs first")
	base := map[string]float64{}
	for _, c := range r.Cells {
		key := c.Spec.Config.Name + "\x00" + c.Spec.Workload.Name
		if _, ok := base[key]; !ok {
			base[key] = c.Runtime.Mean
		}
		fmt.Fprintf(w, "%-20s %-14s %-14s %13.0f %13.0f %13.0f %8.3f\n",
			c.Spec.Config.Name, c.Spec.Workload.Name, c.Spec.Policy.String(),
			c.Runtime.Mean, c.Runtime.Min, c.Runtime.Max,
			stats.NormRatio(c.Runtime.Mean, base[key]))
	}
}

// WriteJSON emits the run as a plain view (the Cell's Workload build
// function cannot marshal), mirroring the bench package's JSON
// exports: fixed field order, map-free, byte-stable across runs and
// worker counts.
func (r *Result) WriteJSON(w io.Writer) error {
	type summaryJSON struct {
		N      int     `json:"n"`
		Mean   float64 `json:"mean_cycles"`
		Min    float64 `json:"min_cycles"`
		Max    float64 `json:"max_cycles"`
		StdDev float64 `json:"stddev_cycles"`
	}
	sum := func(s stats.Summary) summaryJSON {
		return summaryJSON{N: s.N, Mean: s.Mean, Min: s.Min, Max: s.Max, StdDev: s.StdDev}
	}
	type cellJSON struct {
		Workload string      `json:"workload"`
		Config   string      `json:"config"`
		Policy   string      `json:"policy"`
		Runtime  summaryJSON `json:"runtime"`
		Idle     summaryJSON `json:"idle"`
		Ops      uint64      `json:"engine_ops"`
	}
	view := struct {
		Suite   string     `json:"suite"`
		Repeats int        `json:"repeats"`
		Scale   float64    `json:"scale"`
		Seed    int64      `json:"seed"`
		Cells   []cellJSON `json:"cells"`
		Ops     uint64     `json:"engine_ops"`
	}{Suite: r.Suite, Repeats: r.Repeats, Scale: r.Params.Scale, Seed: r.Params.Seed, Ops: r.Ops}
	for _, c := range r.Cells {
		view.Cells = append(view.Cells, cellJSON{
			Workload: c.Spec.Workload.Name, Config: c.Spec.Config.Name, Policy: c.Spec.Policy.String(),
			Runtime: sum(c.Runtime), Idle: sum(c.Idle), Ops: c.Ops,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(view)
}

// WriteCSV emits one row per cell.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"suite", "config", "workload", "policy",
		"runtime_mean", "runtime_min", "runtime_max",
		"idle_mean", "idle_min", "idle_max", "ops"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range r.Cells {
		if err := cw.Write([]string{r.Suite, c.Spec.Config.Name, c.Spec.Workload.Name, c.Spec.Policy.String(),
			f(c.Runtime.Mean), f(c.Runtime.Min), f(c.Runtime.Max),
			f(c.Idle.Mean), f(c.Idle.Min), f(c.Idle.Max),
			strconv.FormatUint(c.Ops, 10)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
