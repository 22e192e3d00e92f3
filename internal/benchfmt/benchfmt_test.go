package benchfmt

import (
	"reflect"
	"strings"
	"testing"
)

// A format-1 engine report: no format field, aggregates only. Read
// without its samples it would decode into empty series, so Decode
// must refuse it and name the format.
const v1Engine = `{
  "scale": 0.1,
  "repeats": 2,
  "host_cpus": 1,
  "records": [
    {"experiment": "latency", "parallel": 1, "cells": 4, "engine_ops": 0,
     "wall_seconds": 0.5, "cells_per_sec": 8, "ops_per_sec": 0},
    {"experiment": "suite", "parallel": 1, "cells": 210, "engine_ops": 1000,
     "wall_seconds": 2.0, "cells_per_sec": 105, "ops_per_sec": 500}
  ],
  "overall": [
    {"experiment": "overall", "parallel": 1, "cells": 214, "engine_ops": 1000,
     "wall_seconds": 2.5, "cells_per_sec": 85.6, "ops_per_sec": 400}
  ]
}`

func TestDecodeV1Engine(t *testing.T) {
	kind, series, err := Decode([]byte(v1Engine))
	if err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("Decode error = %v, want one naming format 1", err)
	}
	if kind != "" || series != nil {
		t.Fatalf("Decode returned kind %q and %d series with its error", kind, len(series))
	}
}

const v1Serve = `{
  "host_cpus": 1,
  "ops_per_client": 2000,
  "records": [
    {"scenario": "4_nodes_16_clients", "nodes": 4, "clients": 16, "ops": 32000,
     "wall_seconds": 0.8, "ops_per_sec": 40000, "retries": 3, "refills": 10,
     "batches": 5, "batched_reqs": 40, "degraded": 7}
  ],
  "shard_scaling": 1.04
}`

func TestDecodeV1Serve(t *testing.T) {
	kind, series, err := Decode([]byte(v1Serve))
	if err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("Decode error = %v, want one naming format 1", err)
	}
	if kind != "" || series != nil {
		t.Fatalf("Decode returned kind %q and %d series with its error", kind, len(series))
	}
}

const v2Engine = `{
  "format": 2,
  "scale": 0.1,
  "repeats": 2,
  "samples": 3,
  "host_cpus": 1,
  "records": [
    {"experiment": "suite", "parallel": 1, "cells": 210, "engine_ops": 1000,
     "wall_seconds": 2.0, "cells_per_sec": 105, "ops_per_sec": 500,
     "wall_seconds_samples": [1.9, 2.0, 2.1],
     "ops_per_sec_samples": [526, 500, 476],
     "cells_per_sec_samples": [110.5, 105, 100]}
  ],
  "overall": []
}`

func TestDecodeV2Engine(t *testing.T) {
	kind, series, err := Decode([]byte(v2Engine))
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEngine {
		t.Fatalf("kind = %q, want engine", kind)
	}
	want := []Series{
		{Key: "suite/parallel=1", Unit: "ops/sec", Samples: []float64{526, 500, 476}, Ops: 1000, Cells: 210},
	}
	if !reflect.DeepEqual(series, want) {
		t.Fatalf("series = %+v, want %+v", series, want)
	}
}

// A format-2 serve report carrying every record family: in-process,
// wire (net) and task-churn. Each must land under its own series-key
// prefix so tintstat never cross-compares them. The offload_records
// block is what reports written before the offload experiment was
// removed carry: they must still decode, with the block ignored.
const v2ServeFull = `{
  "format": 2,
  "host_cpus": 2,
  "ops_per_client": 2000,
  "samples": 2,
  "records": [
    {"scenario": "4_nodes_16_clients", "nodes": 4, "clients": 16, "ops": 32000,
     "wall_seconds": 0.8, "ops_per_sec": 40000,
     "ops_per_sec_samples": [41000, 39000]}
  ],
  "offload_records": [
    {"scenario": "4_nodes_16_clients", "nodes": 4, "clients": 16, "ops": 32000,
     "wall_seconds": 1.0, "ops_per_sec": 32000}
  ],
  "net_records": [
    {"scenario": "8_conns", "nodes": 4, "clients": 8, "ops": 16000,
     "wall_seconds": 2.0, "ops_per_sec": 8000,
     "ops_per_sec_samples": [8100, 7900]}
  ],
  "churn_records": [
    {"scenario": "rr_8_tasks", "policy": "rr", "tasks": 8, "ops": 9000,
     "ticks": 600, "dispatches": 70, "preemptions": 40, "blocks": 12,
     "wall_seconds": 0.5, "ops_per_sec": 18000,
     "ops_per_sec_samples": [18500, 17500]}
  ]
}`

func TestDecodeServeNetAndChurn(t *testing.T) {
	kind, series, err := Decode([]byte(v2ServeFull))
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindServe {
		t.Fatalf("kind = %q, want serve", kind)
	}
	want := []Series{
		{Key: "4_nodes_16_clients", Unit: "ops/sec", Samples: []float64{41000, 39000}, Ops: 32000},
		{Key: "net/8_conns", Unit: "ops/sec", Samples: []float64{8100, 7900}, Ops: 16000},
		{Key: "churn/rr_8_tasks", Unit: "ops/sec", Samples: []float64{18500, 17500}, Ops: 9000},
	}
	if !reflect.DeepEqual(series, want) {
		t.Fatalf("series = %+v, want %+v", series, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	for name, c := range map[string]struct{ data, want string }{
		"not json":       {`nope`, "invalid character"},
		"no records":     {`{"format": 2, "records": []}`, "no records"},
		"unknown record": {`{"format": 2, "records": [{"foo": 1}]}`, "neither"},
		// Format 1 had no format field and no samples.
		"format 1": {`{"records": [{"experiment": "suite", "parallel": 1, "ops_per_sec": 500}]}`, "format 1"},
		"format 3": {`{"format": 3, "records": [{"scenario": "x", "ops_per_sec": 1}]}`, "format 3"},
	} {
		if _, _, err := Decode([]byte(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode error = %v, want one naming %q", name, err, c.want)
		}
	}
}

// Round-trip: a report written by WriteFile must decode to the same
// series.
func TestWriteReadRoundTrip(t *testing.T) {
	rep := &Report{
		Format: FormatVersion, Scale: 0.1, Repeats: 1, Samples: 2, HostCPUs: 4,
		Records: []Record{{
			Experiment: "suite", Parallel: 2, Cells: 10, EngineOps: 999,
			WallSeconds: 1.5, CellsPerSec: 6.67, OpsPerSec: 666,
			WallSecondsSamples: []float64{1.4, 1.6},
			OpsPerSecSamples:   []float64{713, 624},
			CellsPerSecSamples: []float64{7.1, 6.2},
		}},
	}
	path := t.TempDir() + "/report.json"
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	kind, series, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEngine {
		t.Fatalf("kind = %q, want engine", kind)
	}
	want := []Series{
		{Key: "suite/parallel=2", Unit: "ops/sec", Samples: []float64{713, 624}, Ops: 999, Cells: 10},
	}
	if !reflect.DeepEqual(series, want) {
		t.Fatalf("series = %+v, want %+v", series, want)
	}
}

func TestFindRecord(t *testing.T) {
	recs := []Record{
		{Experiment: "a", Parallel: 1},
		{Experiment: "a", Parallel: 8},
	}
	if r := FindRecord(recs, "a", 8); r == nil || r.Parallel != 8 {
		t.Errorf("FindRecord(a, 8) = %+v", r)
	}
	if r := FindRecord(recs, "b", 1); r != nil {
		t.Errorf("FindRecord(b, 1) = %+v, want nil", r)
	}
	srecs := []ServeRecord{{Scenario: "x"}}
	if r := FindServeRecord(srecs, "x"); r == nil {
		t.Error("FindServeRecord(x) = nil")
	}
	if r := FindServeRecord(srecs, "y"); r != nil {
		t.Errorf("FindServeRecord(y) = %+v, want nil", r)
	}
}
