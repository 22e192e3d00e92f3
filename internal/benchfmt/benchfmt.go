// Package benchfmt defines the on-disk schema of the repository's
// benchmark reports (BENCH_engine.json, BENCH_serve.json) and a reader
// that normalizes either file into keyed sample series for statistical
// comparison by tintstat. Reports are format 2: every record carries
// its raw per-sample measurements (wall seconds and the derived
// throughputs) beside their means, so consumers compute real
// distributions — mean, stddev, confidence intervals, Welch's t —
// instead of eyeballing two aggregates.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// FormatVersion is the schema version this package reads and writes.
const FormatVersion = 2

// Record is one (experiment, parallel) measurement of the engine
// harness (`tintbench -exp bench`).
type Record struct {
	Experiment  string  `json:"experiment"`
	Parallel    int     `json:"parallel"`
	Cells       int     `json:"cells"`
	EngineOps   uint64  `json:"engine_ops"`
	WallSeconds float64 `json:"wall_seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// AllocsPerOp is host heap allocations per engine op, measured as
	// the runtime.MemStats.Mallocs delta across the sample divided by
	// EngineOps (mean across samples; 0 means unmeasured in files
	// written before the field existed — genuinely zero-alloc suites
	// don't occur, every cell at least boots a machine). tintstat's
	// -exact-allocs gate compares it across reports.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Raw per-sample measurements. The aggregate fields above hold
	// the mean across samples.
	WallSecondsSamples []float64 `json:"wall_seconds_samples,omitempty"`
	OpsPerSecSamples   []float64 `json:"ops_per_sec_samples,omitempty"`
	CellsPerSecSamples []float64 `json:"cells_per_sec_samples,omitempty"`
}

// Report is the engine-harness file (BENCH_engine.json).
type Report struct {
	Format  int     `json:"format,omitempty"`
	Scale   float64 `json:"scale"`
	Repeats int     `json:"repeats"`
	// Samples is how many times each (experiment, parallel) cell was
	// re-timed.
	Samples int `json:"samples,omitempty"`
	// HostCPUs bounds the achievable speedup: -parallel buys wall
	// clock only up to the host's core count (results are identical
	// regardless).
	HostCPUs int      `json:"host_cpus"`
	Records  []Record `json:"records"`
	Overall  []Record `json:"overall"`
	// SpeedupCellsPerSec compares overall cells/sec at the last
	// -bench-parallel value against the first.
	SpeedupCellsPerSec float64 `json:"speedup_cells_per_sec"`
	// Baseline carries the records of the report the output file
	// previously held, so a regenerated report documents its own
	// before/after comparison (one generation back).
	Baseline []Record `json:"baseline,omitempty"`
	// SpeedupVsBaseline is suite ops/sec at the first -bench-parallel
	// value divided by the same cell of Baseline (0 when no baseline).
	// Only comparable when both runs used the same host; see HostCPUs.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// FindRecord returns the record for (experiment, parallel), or nil.
func FindRecord(recs []Record, experiment string, parallel int) *Record {
	for i := range recs {
		if recs[i].Experiment == experiment && recs[i].Parallel == parallel {
			return &recs[i]
		}
	}
	return nil
}

// ServeRecord is one scenario of the serve-scaling harness
// (`tintbench -exp serve`).
type ServeRecord struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Clients  int    `json:"clients"`
	// Ops counts completed client operations (deterministic for a
	// given spec); everything below it is timing-dependent.
	Ops         uint64  `json:"ops"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Retries     uint64  `json:"retries"` // ErrBusy rejections absorbed
	Refills     uint64  `json:"refills"` // block shatters
	Batches     uint64  `json:"batches"`
	BatchedReqs uint64  `json:"batched_reqs"`
	Degraded    uint64  `json:"degraded"` // ladder allocations
	// AllocsPerOp is host heap allocations per completed client op
	// (runtime.MemStats.Mallocs delta over the sample / Ops, mean
	// across samples; 0 = unmeasured in pre-field files). Includes
	// every goroutine, so it measures the whole serving stack, not one
	// client's view.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Raw per-sample measurements.
	WallSecondsSamples []float64 `json:"wall_seconds_samples,omitempty"`
	OpsPerSecSamples   []float64 `json:"ops_per_sec_samples,omitempty"`
}

// ServeReport is the serve-harness file (BENCH_serve.json).
type ServeReport struct {
	Format int `json:"format,omitempty"`
	// HostCPUs bounds achievable scaling: shard parallelism buys wall
	// clock only up to the host's core count. On a single-core host
	// ~1x across shard counts is expected and acceptable.
	HostCPUs     int           `json:"host_cpus"`
	OpsPerClient int           `json:"ops_per_client"`
	Samples      int           `json:"samples,omitempty"`
	Records      []ServeRecord `json:"records"`
	// ShardScaling is ops/sec at 4 engaged shards over 1 engaged
	// shard, both with 16 clients.
	ShardScaling float64 `json:"shard_scaling"`
	// Baseline carries the previous report's records so a regenerated
	// report documents its own before/after.
	Baseline []ServeRecord `json:"baseline,omitempty"`
	// SpeedupVsBaseline compares the 4-node 16-client cell against
	// the same cell of Baseline (0 when no baseline). Only comparable
	// on the same host; see HostCPUs.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// NetRecords holds the connection-count scaling sweep driven over
	// the wire protocol against a tintserved-shaped daemon (`tintbench
	// -exp serve` with -net). The Clients field carries the connection
	// count. Normalized series key them as "net/<scenario>".
	NetRecords []ServeRecord `json:"net_records,omitempty"`
	// ChurnRecords holds the task-churn sweep: batches admitted by the
	// daemon's dispatch scheduler under each policy. Normalized series
	// key them as "churn/<scenario>".
	ChurnRecords []ChurnRecord `json:"churn_records,omitempty"`
}

// ChurnRecord is one task-churn scenario: the daemon's dispatch
// scheduler runs a spec-determined task batch to exit, so Ops, Ticks
// and the dispatch counters are deterministic; only the wall clock
// varies across hosts.
type ChurnRecord struct {
	Scenario    string  `json:"scenario"`
	Policy      string  `json:"policy"`
	Tasks       int     `json:"tasks"`
	Ops         uint64  `json:"ops"`
	Ticks       uint64  `json:"ticks"`
	Dispatches  uint64  `json:"dispatches"`
	Preemptions uint64  `json:"preemptions"`
	Blocks      uint64  `json:"blocks"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// Raw per-sample measurements.
	WallSecondsSamples []float64 `json:"wall_seconds_samples,omitempty"`
	OpsPerSecSamples   []float64 `json:"ops_per_sec_samples,omitempty"`
}

// FindServeRecord returns the record for scenario, or nil.
func FindServeRecord(recs []ServeRecord, scenario string) *ServeRecord {
	for i := range recs {
		if recs[i].Scenario == scenario {
			return &recs[i]
		}
	}
	return nil
}

// Series is the normalized view of one record: a key, a throughput
// sample distribution, and the deterministic work counters behind it.
// tintstat compares series of the same key across two files.
type Series struct {
	// Key identifies the record across files:
	// "experiment/parallel=N" for engine reports, the scenario name
	// for serve reports.
	Key string
	// Unit names the throughput measure ("ops/sec" or "cells/sec").
	Unit string
	// Samples holds the raw throughput samples, higher = better.
	Samples []float64
	// Ops is the deterministic simulated-work counter (engine ops or
	// completed client ops). For a fixed scale/seed it must not vary
	// across hosts — tintstat's -exact-ops gate checks that.
	Ops uint64
	// Cells is the cell count of the record (0 for serve records).
	Cells int
	// AllocsPerOp is the record's host allocations per op; HasAllocs
	// distinguishes a measured zero from a pre-field file, so
	// tintstat's -exact-allocs gate skips records that never measured.
	AllocsPerOp float64
	HasAllocs   bool
}

// Kind labels which harness produced a file.
type Kind string

const (
	KindEngine Kind = "engine"
	KindServe  Kind = "serve"
)

// Decode normalizes a format-2 report file (either harness) into
// keyed series in file order.
func Decode(data []byte) (Kind, []Series, error) {
	// The two report shapes are distinguished by their record keys:
	// engine records carry "experiment", serve records "scenario".
	var probe struct {
		Format  int `json:"format"`
		Records []struct {
			Experiment string `json:"experiment"`
			Scenario   string `json:"scenario"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", nil, fmt.Errorf("benchfmt: %w", err)
	}
	// Format 1, aggregates only, had no format field.
	if f := max(probe.Format, 1); f != FormatVersion {
		return "", nil, fmt.Errorf("benchfmt: report format %d, want %d", f, FormatVersion)
	}
	if len(probe.Records) == 0 {
		return "", nil, fmt.Errorf("benchfmt: no records")
	}
	switch {
	case probe.Records[0].Experiment != "":
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return "", nil, fmt.Errorf("benchfmt: %w", err)
		}
		return KindEngine, EngineSeries(&rep), nil
	case probe.Records[0].Scenario != "":
		var rep ServeReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return "", nil, fmt.Errorf("benchfmt: %w", err)
		}
		return KindServe, ServeSeries(&rep), nil
	default:
		return "", nil, fmt.Errorf("benchfmt: records carry neither \"experiment\" nor \"scenario\" keys")
	}
}

// ReadFile loads and normalizes a report file.
func ReadFile(path string) (Kind, []Series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("benchfmt: %w", err)
	}
	kind, series, err := Decode(data)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	return kind, series, nil
}

// EngineSeries normalizes an engine report. The "overall" roll-up
// rows are included under "overall/parallel=N" keys.
func EngineSeries(rep *Report) []Series {
	var out []Series
	for _, recs := range [][]Record{rep.Records, rep.Overall} {
		for i := range recs {
			out = append(out, engineSeries(&recs[i]))
		}
	}
	return out
}

func engineSeries(r *Record) Series {
	s := Series{
		Key:         fmt.Sprintf("%s/parallel=%d", r.Experiment, r.Parallel),
		Unit:        "ops/sec",
		Ops:         r.EngineOps,
		Cells:       r.Cells,
		AllocsPerOp: r.AllocsPerOp,
		HasAllocs:   r.AllocsPerOp != 0,
	}
	// Experiments that do no engine work (the latency primer) fall
	// back to cells/sec so they still have a throughput signal.
	if r.EngineOps == 0 {
		s.Unit = "cells/sec"
		s.Samples = append([]float64(nil), r.CellsPerSecSamples...)
		return s
	}
	s.Samples = append([]float64(nil), r.OpsPerSecSamples...)
	return s
}

// ServeSeries normalizes a serve report: in-process records keyed by
// scenario, wire and task-churn records under "net/" and "churn/".
func ServeSeries(rep *ServeReport) []Series {
	var out []Series
	for i := range rep.Records {
		out = append(out, serveSeries(&rep.Records[i], ""))
	}
	for i := range rep.NetRecords {
		out = append(out, serveSeries(&rep.NetRecords[i], "net/"))
	}
	for i := range rep.ChurnRecords {
		out = append(out, churnSeries(&rep.ChurnRecords[i]))
	}
	return out
}

func churnSeries(r *ChurnRecord) Series {
	return Series{
		Key:     "churn/" + r.Scenario,
		Unit:    "ops/sec",
		Samples: append([]float64(nil), r.OpsPerSecSamples...),
		Ops:     r.Ops,
	}
}

func serveSeries(r *ServeRecord, prefix string) Series {
	return Series{
		Key:         prefix + r.Scenario,
		Unit:        "ops/sec",
		Samples:     append([]float64(nil), r.OpsPerSecSamples...),
		Ops:         r.Ops,
		AllocsPerOp: r.AllocsPerOp,
		HasAllocs:   r.AllocsPerOp != 0,
	}
}

// WriteFile marshals a report (either shape) to path with the
// repository's indentation convention.
func WriteFile(path string, rep any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
