package bench

import (
	"fmt"
	"io"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// Sensitivity sweeps: how robust is the paper's conclusion to the
// machine parameters the authors could not vary on fixed hardware?
// Each sweep point rebuilds the machine with one parameter changed
// and measures the MEM+LLC-vs-buddy runtime ratio on a chosen
// workload. The paper's claim survives a parameter regime if the
// ratio stays below 1.

// SweepParam selects which machine parameter a sweep varies.
type SweepParam string

// Sweepable parameters.
const (
	// SweepHopCycles varies the per-hop interconnect propagation
	// cost: 0 collapses the machine to UMA (locality worthless),
	// large values make NUMA distance dominate.
	SweepHopCycles SweepParam = "hop-cycles"
	// SweepRowPenalty varies tRP+tRCD (the row-conflict penalty)
	// relative to tCAS: 0 removes the row buffer (bank isolation
	// worthless), large values magnify bank interference.
	SweepRowPenalty SweepParam = "row-penalty"
	// SweepLLCWays varies the shared L3's associativity at constant
	// capacity — lower associativity makes cross-thread conflict
	// misses (and so LLC coloring) matter more.
	SweepLLCWays SweepParam = "llc-ways"
)

// SweepPoint is one measurement of a sweep.
type SweepPoint struct {
	Value     float64 // the swept parameter's value
	Buddy     stats.Summary
	MEMLLC    stats.Summary
	RatioMean float64 // MEMLLC.Mean / Buddy.Mean
}

// SweepResult holds a full sweep.
type SweepResult struct {
	Param    SweepParam
	Workload string
	Config   Config
	Points   []SweepPoint
	// Ops counts engine ops across every sweep cell (perf accounting).
	Ops uint64
}

// RunSweep measures the MEM+LLC/buddy runtime ratio of one workload
// at each value of the chosen parameter, running up to `workers`
// cells concurrently. Machine state is rebuilt per point; everything
// else (memory size, aging, workload seed) stays fixed. Each (point,
// policy) cell is an independent scatter/gather job against its
// point's machine, so the sweep parallelizes without changing a byte
// of output.
func RunSweep(param SweepParam, values []float64, wl workload.Workload, cfgName string,
	params workload.Params, repeats int, memBytes uint64, workers int) (*SweepResult, error) {
	if memBytes == 0 {
		memBytes = DefaultMemBytes
	}
	// Machine descriptions are cheap to build (the expensive aged-zone
	// prototypes materialize lazily, per machine, under its own
	// mutex); validate every sweep value before any cell runs.
	machines := make([]*Machine, len(values))
	var out *SweepResult
	for i, v := range values {
		mach, err := NewMachine(MachineOptions{MemBytes: memBytes})
		if err != nil {
			return nil, err
		}
		if err := applySweepParam(mach, param, v); err != nil {
			return nil, err
		}
		cfg, err := ConfigByName(mach.Topo, cfgName)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &SweepResult{Param: param, Workload: wl.Name, Config: cfg}
		}
		machines[i] = mach
	}
	pols := []policy.Policy{policy.Buddy, policy.MEMLLC}
	cells, err := Gather(len(values)*len(pols), workers, func(i int) (Cell, error) {
		pt, p := i/len(pols), pols[i%len(pols)]
		return RunRepeated(machines[pt], RunSpec{Workload: wl, Config: out.Config, Policy: p, Params: params}, repeats)
	})
	if err != nil {
		return nil, err
	}
	for i, v := range values {
		buddy, colored := cells[i*len(pols)], cells[i*len(pols)+1]
		out.Ops += buddy.Ops + colored.Ops
		out.Points = append(out.Points, SweepPoint{
			Value:     v,
			Buddy:     buddy.Runtime,
			MEMLLC:    colored.Runtime,
			RatioMean: stats.NormRatio(colored.Runtime.Mean, buddy.Runtime.Mean),
		})
	}
	return out, nil
}

func applySweepParam(mach *Machine, param SweepParam, v float64) error {
	switch param {
	case SweepHopCycles:
		if v < 0 {
			return fmt.Errorf("bench: hop cycles must be >= 0")
		}
		mach.MemCfg.HopCycles = clock.Dur(v)
	case SweepRowPenalty:
		if v < 0 {
			return fmt.Errorf("bench: row penalty must be >= 0")
		}
		mach.MemCfg.DRAM.TRP = clock.Dur(v / 2)
		mach.MemCfg.DRAM.TRCD = clock.Dur(v / 2)
	case SweepLLCWays:
		ways := int(v)
		if ways < 1 {
			return fmt.Errorf("bench: LLC ways must be >= 1")
		}
		// Keep capacity constant; the set count adjusts and must
		// stay a power of two for the cache constructor.
		mach.MemCfg.L3.Ways = ways
	default:
		return fmt.Errorf("bench: unknown sweep parameter %q", param)
	}
	return nil
}

// WriteTable prints the sweep.
func (r *SweepResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Sensitivity sweep — %s on %s (%s); MEM+LLC runtime normalized to buddy\n",
		r.Param, r.Workload, r.Config.Name)
	fmt.Fprintf(w, "%-12s %15s %15s %10s\n", string(r.Param), "buddy cycles", "MEM+LLC cycles", "ratio")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-12g %15.0f %15.0f %10.3f\n",
			p.Value, p.Buddy.Mean, p.MEMLLC.Mean, p.RatioMean)
	}
}

// WriteCSV exports the sweep.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "param,value,buddy_mean,memllc_mean,ratio\n"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%g,%g,%g,%g\n",
			r.Param, p.Value, p.Buddy.Mean, p.MEMLLC.Mean, p.RatioMean); err != nil {
			return err
		}
	}
	return nil
}
