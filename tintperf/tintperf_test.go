package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the program's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// toyRun runs one workload at toy size through the command-line entry
// point and decodes its result line.
func toyRun(t *testing.T, c runConfig) (*report, int, string) {
	t.Helper()
	c.sizeName, c.size = "toy", sizeTable["toy"]
	c.seconds = 0.05
	c.workdir = t.TempDir()
	var out bytes.Buffer
	r, err := run(c, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", c.workload, err, out.String())
	}
	code := 0
	if !r.Correct {
		code = 1
	}
	return r, code, out.String()
}

// heavyLayers are the per-layer metrics each workload is built to
// load; a traced run must measure them above 0.
var heavyLayers = map[string][]string{
	"sim-paper": {"boot.machine_s", "boot.zones_s", "engine.run_s", "engine.ops", "engine.self_ns_per_op",
		"mem.ns_per_access", "mem.accesses", "workload.build_s", "sim.memllc_runtime_ratio", "share.engine", "share.mem"},
	"sim-pressure": {"boot.machine_s", "engine.ops", "mem.accesses", "kernel.ns_per_fault", "kernel.faults_per_kop",
		"kernel.shootdowns", "kernel.colored_frac", "sim.memllc_runtime_ratio", "share.kernel"},
	"net-churn": {"wire.op_us_p50", "wire.op_us_p99", "wire.codec_ns", "wire.hello_us", "daemon.boot_s",
		"daemon.close_s", "daemon.sessions", "serve.op_ns_p50", "serve.refills", "share.wire"},
	"net-tasks": {"wire.op_us_p50", "wire.codec_ns", "daemon.boot_s", "daemon.sessions", "sched.run_s",
		"sched.dispatches", "sched.preemptions", "sched.blocks", "serve.refills", "share.serve"},
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json at toy
// size, untraced and traced, and checks that the result line carries
// exactly the metrics BENCHMARK.json names, each with its unit, and
// that a traced run measures the workload's heavy layers.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			r, code, log := toyRun(t, runConfig{workload: w.Name, seed: defaultSeed, trace: traced, pins: defaultPins})
			if code != 0 || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, r.Correct, r.Attempted, r.Failed, log)
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range r.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
			if !traced {
				continue
			}
			heavy, ok := heavyLayers[w.Name]
			if !ok {
				t.Errorf("%s: no heavy layers listed", w.Name)
			}
			for _, name := range heavy {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: heavy layer %s is not in BENCHMARK.json", w.Name, name)
				}
				if v := r.Metrics[name].Value; v <= 0 {
					t.Errorf("%s: heavy layer %s = %v, want > 0", w.Name, name, v)
				}
			}
		}
	}
}

// TestPerturbedPinFails changes one pinned outcome and checks that the
// output check catches it: the run is incorrect, its ops count as
// failed, and the command exits non-zero.
func TestPerturbedPinFails(t *testing.T) {
	perturbed := func() pinTable {
		p := pinTable{sim: map[string]simPins{}, tasks: map[string]schedCounters{}}
		for k, v := range defaultPins.sim {
			v.Cells = append([]cellOutcome(nil), v.Cells...)
			p.sim[k] = v
		}
		for k, v := range defaultPins.tasks {
			p.tasks[k] = v
		}
		return p
	}
	t.Run("sim-pressure", func(t *testing.T) {
		p := perturbed()
		pin, ok := p.sim["sim-pressure/toy"]
		if !ok {
			t.Fatal("no toy pin for sim-pressure")
		}
		pin.Cells[1].Runtime++
		p.sim["sim-pressure/toy"] = pin
		r, code, log := toyRun(t, runConfig{workload: "sim-pressure", seed: defaultSeed, pins: p})
		if r.Correct || code == 0 || r.Failed == 0 {
			t.Fatalf("perturbed pin passed: correct=%v failed=%d\n%s", r.Correct, r.Failed, log)
		}
		if !strings.Contains(log, "CHECK FAILED") {
			t.Errorf("log does not report the failed check:\n%s", log)
		}
	})
	t.Run("net-tasks", func(t *testing.T) {
		p := perturbed()
		pin, ok := p.tasks["net-tasks/toy"]
		if !ok {
			t.Fatal("no toy pin for net-tasks")
		}
		pin.Blocks++
		p.tasks["net-tasks/toy"] = pin
		r, code, log := toyRun(t, runConfig{workload: "net-tasks", seed: defaultSeed, pins: p})
		if r.Correct || code == 0 || r.Failed == 0 {
			t.Fatalf("perturbed pin passed: correct=%v failed=%d\n%s", r.Correct, r.Failed, log)
		}
	})
}

// TestOtherSeedsSkipPins checks that a non-default seed runs clean:
// pins apply to the default seed only, the round-to-round and audit
// checks to every seed.
func TestOtherSeedsSkipPins(t *testing.T) {
	r, code, log := toyRun(t, runConfig{workload: "sim-pressure", seed: 7, pins: defaultPins})
	if code != 0 || r.Failed != 0 {
		t.Fatalf("seed 7: correct=%v failed=%d\n%s", r.Correct, r.Failed, log)
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := mainErr([]string{"--workload", "no-such"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := mainErr([]string{"--workload", "sim-paper", "--trace", "2"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("bad --trace: exit %d, stdout %q", code, out.String())
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for i := int64(1); i <= 1000; i++ {
		h.record(i * 100) // 0.1 µs .. 100 µs
	}
	if got := h.quantileNS(0.5); got < 49_000 || got > 51_000 {
		t.Errorf("p50 = %v ns, want ~50000", got)
	}
	if got := h.quantileNS(0.95); got < 94_000 || got > 96_000 {
		t.Errorf("p95 = %v ns, want ~95000", got)
	}
	h.record(5_000_000) // beyond the last bucket
	if got := h.quantileNS(1); got != 5_000_000 {
		t.Errorf("max = %v ns, want 5000000", got)
	}
}
