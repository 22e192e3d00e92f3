package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/benchfmt"
	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// The serve-scaling harness behind `tintbench -exp serve` and
// `make serve-bench`. It runs the standard serve sweep — 16 clients
// over 1, 2 and 4 engaged shards, then a client sweep at full
// fan-out — re-times each cell -bench-samples times host-side (the
// internal packages never read the wall clock), and writes a
// format-2 benchfmt report with raw samples, mirroring the
// BENCH_engine.json harness.

// mallocMeter counts the host's heap allocations for allocs_per_op:
// sample deltas of count divided by completed ops. Whole-process
// Mallocs also counts what the runtime allocates for itself after
// each GC cycle (with net/netip linked, cleaning up the unique
// package's maps costs about two objects per cycle), so a sample's
// count varies with how many cycles happen to fall inside it. count
// subtracts those, at a per-cycle rate measured once over idle
// forced cycles.
type mallocMeter struct {
	perGC float64
}

func newMallocMeter() mallocMeter {
	const cycles = 64
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < cycles; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms1)
	return mallocMeter{perGC: float64(ms1.Mallocs-ms0.Mallocs) / float64(ms1.NumGC-ms0.NumGC)}
}

// count reads the cumulative heap allocation count, less perGC per
// completed GC cycle.
func (m mallocMeter) count() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs) - m.perGC*float64(ms.NumGC)
}

// serveSweep times every spec, printing one table row per scenario
// and returning the format-2 records.
func serveSweep(w io.Writer, specs []bench.ServeSpec, samples int,
	memBytes uint64, cfg serve.Config) ([]benchfmt.ServeRecord, error) {
	meter := newMallocMeter()
	var recs []benchfmt.ServeRecord
	for _, spec := range specs {
		rec := benchfmt.ServeRecord{
			Scenario: spec.Name,
			Nodes:    spec.Nodes,
			Clients:  spec.Clients,
		}
		var allocSamples []float64
		for s := 0; s < samples; s++ {
			m0 := meter.count()
			start := time.Now()
			cell, err := bench.RunServeCell(spec, memBytes, cfg)
			wall := time.Since(start).Seconds()
			m1 := meter.count()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			// Ops per completed run is deterministic for a spec; the
			// contention counters are timing-dependent, so the last
			// sample's values stand for the record (as one run did
			// before sampling).
			rec.Ops = cell.Ops
			rec.Retries = cell.Retries
			rec.Refills = cell.Stats.Refills
			rec.Batches = cell.Stats.Batches
			rec.BatchedReqs = cell.Stats.BatchedReqs
			rec.Degraded = cell.Stats.DegradedAllocs()
			rec.WallSecondsSamples = append(rec.WallSecondsSamples, wall)
			rec.OpsPerSecSamples = append(rec.OpsPerSecSamples, float64(cell.Ops)/wall)
			allocSamples = append(allocSamples, (m1-m0)/float64(cell.Ops))
		}
		rec.WallSeconds = mean(rec.WallSecondsSamples)
		rec.OpsPerSec = mean(rec.OpsPerSecSamples)
		rec.AllocsPerOp = mean(allocSamples)
		recs = append(recs, rec)
		fmt.Fprintf(w, "%-20s %6d %8d %10d %9.3f %12.0f %9d %9d %9d %10.2f\n",
			rec.Scenario, rec.Nodes, rec.Clients, rec.Ops, rec.WallSeconds,
			rec.OpsPerSec, rec.Retries, rec.Refills, rec.Degraded, rec.AllocsPerOp)
	}
	return recs, nil
}

// netSweep times the wire-path connection sweep: the serve churn
// driven through OS sockets against an in-process tintserved daemon.
func netSweep(w io.Writer, specs []bench.NetServeSpec, samples int,
	memBytes uint64, cfg serve.Config) ([]benchfmt.ServeRecord, error) {
	var recs []benchfmt.ServeRecord
	for _, spec := range specs {
		rec := benchfmt.ServeRecord{
			Scenario: spec.Name,
			Nodes:    4,
			Clients:  spec.Conns,
		}
		for s := 0; s < samples; s++ {
			start := time.Now()
			cell, err := bench.RunNetServeCell(spec, memBytes, cfg)
			wall := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			rec.Ops = cell.Ops
			rec.Retries = cell.Retries
			rec.Refills = cell.Stats.Refills
			rec.Batches = cell.Stats.Batches
			rec.BatchedReqs = cell.Stats.BatchedReqs
			rec.Degraded = cell.Stats.DegradedAllocs()
			rec.WallSecondsSamples = append(rec.WallSecondsSamples, wall)
			rec.OpsPerSecSamples = append(rec.OpsPerSecSamples, float64(cell.Ops)/wall)
		}
		rec.WallSeconds = mean(rec.WallSecondsSamples)
		rec.OpsPerSec = mean(rec.OpsPerSecSamples)
		recs = append(recs, rec)
		fmt.Fprintf(w, "%-20s %6d %8d %10d %9.3f %12.0f %9d %9d %9d %10s\n",
			rec.Scenario, rec.Nodes, rec.Clients, rec.Ops, rec.WallSeconds,
			rec.OpsPerSec, rec.Retries, rec.Refills, rec.Degraded, "-")
	}
	return recs, nil
}

// churnSweep times the task-churn sweep: spec-determined task batches
// run to exit by the daemon's dispatch scheduler, shipped over the
// wire. Everything but the wall clock is deterministic.
func churnSweep(w io.Writer, specs []bench.ChurnSpec, samples int,
	memBytes uint64, cfg serve.Config) ([]benchfmt.ChurnRecord, error) {
	var recs []benchfmt.ChurnRecord
	for _, spec := range specs {
		rec := benchfmt.ChurnRecord{
			Scenario: spec.Name,
			Policy:   spec.Policy.String(),
			Tasks:    spec.Tasks,
		}
		for s := 0; s < samples; s++ {
			start := time.Now()
			cell, err := bench.RunChurnCell(spec, memBytes, cfg)
			wall := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			rec.Ops = cell.Result.Ops
			rec.Ticks = cell.Result.Ticks
			rec.Dispatches = cell.Result.Dispatches
			rec.Preemptions = cell.Result.Preemptions
			rec.Blocks = cell.Result.Blocks
			rec.WallSecondsSamples = append(rec.WallSecondsSamples, wall)
			rec.OpsPerSecSamples = append(rec.OpsPerSecSamples, float64(cell.Result.Ops)/wall)
		}
		rec.WallSeconds = mean(rec.WallSecondsSamples)
		rec.OpsPerSec = mean(rec.OpsPerSecSamples)
		recs = append(recs, rec)
		fmt.Fprintf(w, "%-20s %6s %8d %10d %9d %11d %11d %9.3f %12.0f\n",
			rec.Scenario, rec.Policy, rec.Tasks, rec.Ops, rec.Ticks,
			rec.Dispatches, rec.Preemptions, rec.WallSeconds, rec.OpsPerSec)
	}
	return recs, nil
}

// comparableServe returns the 4_nodes_16_clients records of the
// previous report and this run, or the reason they are not comparable:
// the reports differ in host CPUs, ops per client or samples, either
// lacks the record, or the two records counted different ops.
func comparableServe(prev, cur *benchfmt.ServeReport) (before, after *benchfmt.ServeRecord, why string) {
	switch {
	case prev.HostCPUs != cur.HostCPUs:
		return nil, nil, fmt.Sprintf("it ran on %d host cpus, this run on %d", prev.HostCPUs, cur.HostCPUs)
	case prev.OpsPerClient != cur.OpsPerClient:
		return nil, nil, fmt.Sprintf("it ran %d ops per client, this run %d", prev.OpsPerClient, cur.OpsPerClient)
	case prev.Samples != cur.Samples:
		return nil, nil, fmt.Sprintf("it took %d samples, this run %d", prev.Samples, cur.Samples)
	}
	before = benchfmt.FindServeRecord(prev.Records, "4_nodes_16_clients")
	after = benchfmt.FindServeRecord(cur.Records, "4_nodes_16_clients")
	switch {
	case before == nil || after == nil || before.OpsPerSec <= 0:
		return nil, nil, "no 4_nodes_16_clients record in both reports"
	case before.Ops != after.Ops:
		return nil, nil, fmt.Sprintf("its 4_nodes_16_clients cell counted %d ops, this run %d", before.Ops, after.Ops)
	}
	return before, after, ""
}

func runServeHarness(w io.Writer, outPath string, memBytes uint64, opsPerClient, samples int,
	cfg serve.Config) error {
	if samples < 1 {
		return fmt.Errorf("-bench-samples: must be >= 1, have %d", samples)
	}
	rep := &benchfmt.ServeReport{
		Format:       benchfmt.FormatVersion,
		HostCPUs:     runtime.NumCPU(),
		OpsPerClient: opsPerClient,
		Samples:      samples,
	}
	specs := bench.ServeScalingSpecs(opsPerClient)
	fmt.Fprintf(w, "serve scaling harness (%d ops/client, %d samples, host cpus %d)\n",
		opsPerClient, samples, rep.HostCPUs)
	header := func() {
		fmt.Fprintf(w, "%-20s %6s %8s %10s %9s %12s %9s %9s %9s %10s\n",
			"scenario", "nodes", "clients", "ops", "wall (s)", "ops/sec", "retries", "refills", "degraded", "allocs/op")
	}
	header()
	recs, err := serveSweep(w, specs, samples, memBytes, cfg)
	if err != nil {
		return err
	}
	rep.Records = recs

	one := benchfmt.FindServeRecord(rep.Records, "1_node_16_clients")
	four := benchfmt.FindServeRecord(rep.Records, "4_nodes_16_clients")
	if one != nil && four != nil && one.OpsPerSec > 0 {
		rep.ShardScaling = four.OpsPerSec / one.OpsPerSec
		fmt.Fprintf(w, "\nshard scaling: 16 clients on 1 -> 4 shards is %.2fx ops/sec\n", rep.ShardScaling)
	}
	if rep.HostCPUs == 1 {
		fmt.Fprintf(w, "note: single-core host — shards cannot run concurrently here; ~1x scaling expected\n")
	}

	// The wire path: same churn, real sockets. Connection-count
	// scaling first, then the daemon-scheduled task-churn matrix.
	fmt.Fprintf(w, "\nwire path (unix socket to an in-process tintserved daemon)\n")
	header()
	netRecs, err := netSweep(w, bench.NetServeScalingSpecs(opsPerClient), samples, memBytes, cfg)
	if err != nil {
		return err
	}
	rep.NetRecords = netRecs

	fmt.Fprintf(w, "\ntask churn (daemon dispatch scheduler, 4 simulated cores, quantum 16)\n")
	fmt.Fprintf(w, "%-20s %6s %8s %10s %9s %11s %11s %9s %12s\n",
		"scenario", "policy", "tasks", "ops", "ticks", "dispatches", "preemptions", "wall (s)", "ops/sec")
	churnRecs, err := churnSweep(w, bench.ChurnScalingSpecs(opsPerClient), samples, memBytes, cfg)
	if err != nil {
		return err
	}
	rep.ChurnRecords = churnRecs

	// Fold the previous report in as the baseline, and compare the
	// 4-node cell with it when the two runs are comparable, as the
	// engine harness does for BENCH_engine.json.
	if data, err := os.ReadFile(outPath); err == nil {
		var prev benchfmt.ServeReport
		if json.Unmarshal(data, &prev) == nil && len(prev.Records) > 0 {
			rep.Baseline = prev.Records
			if before, after, why := comparableServe(&prev, rep); why != "" {
				fmt.Fprintf(w, "no comparison with previous %s: %s\n", outPath, why)
			} else {
				rep.SpeedupVsBaseline = after.OpsPerSec / before.OpsPerSec
				fmt.Fprintf(w, "vs previous %s: 4_nodes_16_clients ops/sec %.0f -> %.0f (%.2fx)\n",
					outPath, before.OpsPerSec, after.OpsPerSec, rep.SpeedupVsBaseline)
			}
		}
	}

	if err := benchfmt.WriteFile(outPath, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}
