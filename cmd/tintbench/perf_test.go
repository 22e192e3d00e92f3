package main

import (
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/benchfmt"
)

func TestComparableSuite(t *testing.T) {
	report := func(cpus int, scale float64, repeats int, ops uint64, opsPerSec float64) *benchfmt.Report {
		return &benchfmt.Report{HostCPUs: cpus, Scale: scale, Repeats: repeats, Records: []benchfmt.Record{
			{Experiment: "fig10", Parallel: 1, EngineOps: 7, OpsPerSec: 1},
			{Experiment: "suite", Parallel: 1, EngineOps: ops, OpsPerSec: opsPerSec},
		}}
	}
	cur := report(2, 0.1, 2, 1000, 300)
	for _, tc := range []struct {
		name    string
		prev    *benchfmt.Report
		workers int
		want    float64
		why     string // "" = compared
	}{
		{"comparable", report(2, 0.1, 2, 1000, 200), 1, 1.5, ""},
		{"other-host", report(1, 0.1, 2, 1000, 200), 1, 0, "1 host cpus"},
		{"v1-no-host", report(0, 0.1, 2, 1000, 200), 1, 0, "0 host cpus"},
		{"other-scale", report(2, 0.05, 2, 1000, 200), 1, 0, "scale 0.05"},
		{"other-repeats", report(2, 0.1, 1, 1000, 200), 1, 0, "1 repeats"},
		{"other-ops", report(2, 0.1, 2, 999, 200), 1, 0, "999 engine ops"},
		{"no-suite-record", report(2, 0.1, 2, 1000, 200), 8, 0, "no suite record"},
		{"zero-baseline", report(2, 0.1, 2, 1000, 0), 1, 0, "no suite record"},
	} {
		var got float64
		before, after, why := comparableSuite(tc.prev, cur, tc.workers)
		if why == "" {
			got = after.OpsPerSec / before.OpsPerSec
		}
		if got != tc.want || (tc.why == "") != (why == "") || !strings.Contains(why, tc.why) {
			t.Errorf("%s: speedup %v, reason %q; want %v, reason containing %q", tc.name, got, why, tc.want, tc.why)
		}
	}
}

func TestComparableServe(t *testing.T) {
	report := func(cpus, opsPerClient, samples int, ops uint64, opsPerSec float64) *benchfmt.ServeReport {
		return &benchfmt.ServeReport{HostCPUs: cpus, OpsPerClient: opsPerClient, Samples: samples, Records: []benchfmt.ServeRecord{
			{Scenario: "1_node_16_clients", Ops: 7, OpsPerSec: 1},
			{Scenario: "4_nodes_16_clients", Ops: ops, OpsPerSec: opsPerSec},
		}}
	}
	cur := report(2, 20000, 5, 1000, 300)
	for _, tc := range []struct {
		name string
		prev *benchfmt.ServeReport
		want float64
		why  string // "" = compared
	}{
		{"comparable", report(2, 20000, 5, 1000, 200), 1.5, ""},
		{"other-host", report(1, 20000, 5, 1000, 200), 0, "1 host cpus"},
		{"v1-no-host", report(0, 20000, 5, 1000, 200), 0, "0 host cpus"},
		{"other-ops-per-client", report(2, 2000, 5, 1000, 200), 0, "2000 ops per client"},
		{"other-samples", report(2, 20000, 1, 1000, 200), 0, "1 samples"},
		{"other-ops", report(2, 20000, 5, 999, 200), 0, "counted 999 ops"},
		{"no-record", &benchfmt.ServeReport{HostCPUs: 2, OpsPerClient: 20000, Samples: 5}, 0, "no 4_nodes_16_clients record"},
		{"zero-baseline", report(2, 20000, 5, 1000, 0), 0, "no 4_nodes_16_clients record"},
	} {
		var got float64
		before, after, why := comparableServe(tc.prev, cur)
		if why == "" {
			got = after.OpsPerSec / before.OpsPerSec
		}
		if got != tc.want || (tc.why == "") != (why == "") || !strings.Contains(why, tc.why) {
			t.Errorf("%s: speedup %v, reason %q; want %v, reason containing %q", tc.name, got, why, tc.want, tc.why)
		}
	}
}
