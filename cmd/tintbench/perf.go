package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/benchfmt"
	"github.com/tintmalloc/tintmalloc/internal/suite"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The benchmark-regression harness behind `tintbench -exp bench` and
// `make bench`. It runs every experiment at each requested -parallel
// value on a fresh Machine, re-times each (experiment, parallel) cell
// -bench-samples times (cmd-side wall clock only: the simulator
// itself never reads it), and writes a format-2 benchfmt report with
// the raw per-sample throughputs so tintstat can test old-vs-new
// deltas for statistical significance instead of eyeballing two
// aggregates.

type perfExperiment struct {
	name string
	// run executes the experiment with `workers` concurrent cells and
	// reports how many cells it simulated and the engine ops spent.
	run func(workers int) (cells int, ops uint64, err error)
}

func benchExperiments(memBytes uint64, params workload.Params, repeats int) ([]perfExperiment, error) {
	// Each experiment builds its Machine inside run() so every
	// (experiment, parallel) pair starts from identical cold state:
	// the aged-zone prototype cache never carries over between
	// timings.
	newMach := func() (*bench.Machine, error) {
		return bench.NewMachine(bench.MachineOptions{MemBytes: memBytes})
	}
	lbm := workload.LBM()
	exps := []perfExperiment{
		{"latency", func(workers int) (int, uint64, error) {
			mach, err := newMach()
			if err != nil {
				return 0, 0, err
			}
			r, err := bench.RunLatency(mach, 0, 512, workers)
			if err != nil {
				return 0, 0, err
			}
			return len(r.Rows), 0, nil
		}},
	}
	// The figure series run the embedded registry's paper matrices
	// unmodified: a -suites file never reshapes what is timed.
	reg := suite.Default()
	for _, f := range []struct{ series, entry string }{
		{"fig10", "fig10"}, {"suite", "paper"}, {"perthread", "perthread-lbm"}, {"detail", "detail-lbm"},
	} {
		s, err := reg.ByName(f.entry)
		if err != nil {
			return nil, err
		}
		exps = append(exps, perfExperiment{f.series, func(workers int) (int, uint64, error) {
			mach, err := newMach()
			if err != nil {
				return 0, 0, err
			}
			r, err := suite.Run(mach, s, params, repeats, workers)
			if err != nil {
				return 0, 0, err
			}
			return len(r.Cells), r.Ops, nil
		}})
	}
	return append(exps, []perfExperiment{
		{"adaptive", func(workers int) (int, uint64, error) {
			// The series runs what -exp adaptive runs. Its cells run in
			// order, so workers is ignored and the counters stay
			// identical across -parallel values; it runs at scale 1
			// whatever -scale says, so -scale does not change the ops
			// either, and the series stays exactly what the exact-ops
			// gate compares.
			r, err := bench.RunAdaptiveExperiment(params)
			if err != nil {
				return 0, 0, err
			}
			var ops uint64
			for i := range r.Rows {
				ops += r.Rows[i].Metrics.Ops
			}
			return len(r.Rows), ops, nil
		}},
		{"sweep", func(workers int) (int, uint64, error) {
			vals := []float64{0, 25, 50, 100}
			r, err := bench.RunSweep(bench.SweepHopCycles, vals, lbm,
				"16_threads_4_nodes", params, repeats, memBytes, workers)
			if err != nil {
				return 0, 0, err
			}
			return 2 * len(r.Points), r.Ops, nil
		}},
	}...), nil
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// timeExperiment re-times one (experiment, parallel) cell `samples`
// times and folds the raw measurements into a format-2 record. The
// deterministic counters must agree across samples — a drift is a
// determinism bug, not noise, and fails the harness.
func timeExperiment(e perfExperiment, workers, samples int, meter mallocMeter) (benchfmt.Record, error) {
	rec := benchfmt.Record{Experiment: e.name, Parallel: workers}
	var allocSamples []float64
	for s := 0; s < samples; s++ {
		m0 := meter.count()
		start := time.Now()
		cells, ops, err := e.run(workers)
		wall := time.Since(start).Seconds()
		m1 := meter.count()
		if err != nil {
			return rec, fmt.Errorf("%s (parallel %d): %w", e.name, workers, err)
		}
		if s == 0 {
			rec.Cells, rec.EngineOps = cells, ops
		} else if cells != rec.Cells || ops != rec.EngineOps {
			return rec, fmt.Errorf("%s (parallel %d): deterministic counters drifted between samples: cells %d -> %d, ops %d -> %d",
				e.name, workers, rec.Cells, cells, rec.EngineOps, ops)
		}
		rec.WallSecondsSamples = append(rec.WallSecondsSamples, wall)
		rec.CellsPerSecSamples = append(rec.CellsPerSecSamples, float64(cells)/wall)
		rec.OpsPerSecSamples = append(rec.OpsPerSecSamples, float64(ops)/wall)
		allocSamples = append(allocSamples, (m1-m0)/float64(allocDenom(ops, cells)))
	}
	rec.WallSeconds = mean(rec.WallSecondsSamples)
	rec.CellsPerSec = mean(rec.CellsPerSecSamples)
	rec.OpsPerSec = mean(rec.OpsPerSecSamples)
	rec.AllocsPerOp = mean(allocSamples)
	return rec, nil
}

// allocDenom picks the denominator for allocs_per_op: engine ops, or
// cells for experiments that do no engine work (matching the
// cells/sec fallback the throughput series use).
func allocDenom(ops uint64, cells int) uint64 {
	if ops > 0 {
		return ops
	}
	if cells > 0 {
		return uint64(cells)
	}
	return 1
}

func runBenchHarness(w io.Writer, outPath, parCSV string, memBytes uint64,
	params workload.Params, repeats, samples int) error {
	parVals, err := parseInts(parCSV)
	if err != nil {
		return fmt.Errorf("-bench-parallel: %w", err)
	}
	if len(parVals) == 0 {
		return fmt.Errorf("-bench-parallel: no values")
	}
	if samples < 1 {
		return fmt.Errorf("-bench-samples: must be >= 1, have %d", samples)
	}
	exps, err := benchExperiments(memBytes, params, repeats)
	if err != nil {
		return err
	}
	meter := newMallocMeter()

	rep := &benchfmt.Report{
		Format:   benchfmt.FormatVersion,
		Scale:    params.Scale,
		Repeats:  repeats,
		Samples:  samples,
		HostCPUs: runtime.NumCPU(),
	}
	fmt.Fprintf(w, "engine benchmark harness (scale %g, repeats %d, samples %d, host cpus %d)\n",
		params.Scale, repeats, samples, rep.HostCPUs)
	fmt.Fprintf(w, "%-10s %9s %7s %12s %9s %11s %13s\n",
		"experiment", "parallel", "cells", "engine ops", "wall (s)", "cells/sec", "ops/sec")
	for _, workers := range parVals {
		var totalCells int
		var totalOps uint64
		var totalAllocs float64
		totalWall := make([]float64, samples)
		for _, e := range exps {
			rec, err := timeExperiment(e, workers, samples, meter)
			if err != nil {
				return err
			}
			rep.Records = append(rep.Records, rec)
			totalCells += rec.Cells
			totalOps += rec.EngineOps
			totalAllocs += rec.AllocsPerOp * float64(allocDenom(rec.EngineOps, rec.Cells))
			for s, wall := range rec.WallSecondsSamples {
				totalWall[s] += wall
			}
			fmt.Fprintf(w, "%-10s %9d %7d %12d %9.3f %11.2f %13.0f\n",
				rec.Experiment, rec.Parallel, rec.Cells, rec.EngineOps,
				rec.WallSeconds, rec.CellsPerSec, rec.OpsPerSec)
		}
		overall := benchfmt.Record{
			Experiment: "overall",
			Parallel:   workers,
			Cells:      totalCells,
			EngineOps:  totalOps,
		}
		for _, wall := range totalWall {
			overall.WallSecondsSamples = append(overall.WallSecondsSamples, wall)
			overall.CellsPerSecSamples = append(overall.CellsPerSecSamples, float64(totalCells)/wall)
			overall.OpsPerSecSamples = append(overall.OpsPerSecSamples, float64(totalOps)/wall)
		}
		overall.WallSeconds = mean(overall.WallSecondsSamples)
		overall.CellsPerSec = mean(overall.CellsPerSecSamples)
		overall.OpsPerSec = mean(overall.OpsPerSecSamples)
		overall.AllocsPerOp = totalAllocs / float64(allocDenom(totalOps, totalCells))
		rep.Overall = append(rep.Overall, overall)
	}

	first, last := rep.Overall[0], rep.Overall[len(rep.Overall)-1]
	rep.SpeedupCellsPerSec = last.CellsPerSec / first.CellsPerSec
	fmt.Fprintf(w, "\noverall: parallel %d -> %d is %.2fx cells/sec (%.3fs -> %.3fs)\n",
		first.Parallel, last.Parallel, rep.SpeedupCellsPerSec,
		first.WallSeconds, last.WallSeconds)
	if rep.HostCPUs == 1 {
		fmt.Fprintf(w, "note: single-core host — parallel runs cannot beat sequential here; speedup scales with host cores\n")
	}

	// Fold the previous report (if the output file holds one) in as
	// the baseline, and report the suite before/after at the first
	// -bench-parallel value — the engine-throughput regression gate —
	// when the two runs are comparable. (benchfmt reads v1 and v2
	// baselines alike.)
	if data, err := os.ReadFile(outPath); err == nil {
		var prev benchfmt.Report
		if json.Unmarshal(data, &prev) == nil && len(prev.Records) > 0 {
			rep.Baseline = prev.Records
			if before, after, why := comparableSuite(&prev, rep, parVals[0]); why != "" {
				fmt.Fprintf(w, "no comparison with previous %s: %s\n", outPath, why)
			} else {
				rep.SpeedupVsBaseline = after.OpsPerSec / before.OpsPerSec
				fmt.Fprintf(w, "vs previous %s: suite -parallel %d ops/sec %.0f -> %.0f (%.2fx)\n",
					outPath, parVals[0], before.OpsPerSec, after.OpsPerSec, rep.SpeedupVsBaseline)
			}
		}
	}

	if err := benchfmt.WriteFile(outPath, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}

// comparableSuite returns the suite records at -parallel workers of
// the previous report and this run. A wall-clock ratio means something
// only between runs of the same work on the same kind of host, so it
// returns the reason instead when the reports differ in host CPUs,
// scale or repeats, when either lacks the record, or when the two
// records counted different engine ops.
func comparableSuite(prev, cur *benchfmt.Report, workers int) (before, after *benchfmt.Record, why string) {
	switch {
	case prev.HostCPUs != cur.HostCPUs:
		return nil, nil, fmt.Sprintf("it ran on %d host cpus, this run on %d", prev.HostCPUs, cur.HostCPUs)
	case prev.Scale != cur.Scale:
		return nil, nil, fmt.Sprintf("it ran at scale %g, this run at %g", prev.Scale, cur.Scale)
	case prev.Repeats != cur.Repeats:
		return nil, nil, fmt.Sprintf("it ran %d repeats, this run %d", prev.Repeats, cur.Repeats)
	}
	before = benchfmt.FindRecord(prev.Records, "suite", workers)
	after = benchfmt.FindRecord(cur.Records, "suite", workers)
	switch {
	case before == nil || after == nil || before.OpsPerSec <= 0:
		return nil, nil, fmt.Sprintf("no suite record at -parallel %d in both reports", workers)
	case before.EngineOps != after.EngineOps:
		return nil, nil, fmt.Sprintf("its suite counted %d engine ops, this run %d", before.EngineOps, after.EngineOps)
	}
	return before, after, ""
}

func parseInts(csv string) ([]int, error) {
	var vals []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}
