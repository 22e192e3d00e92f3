// Command tintperf is the repository's end-to-end benchmark. It runs
// one named workload from a single process, drives the simulator and
// the allocation daemon only through their public entry points,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard
// output:
//
//	go run . --workload sim-paper --seed 1 --seconds 20 --trace 0
//
// run.sh builds it inside the checkout and is what BENCHMARK.json
// names. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outcomes are pinned in pins.go.
const defaultSeed = 1

// epochs is how many times a run measures the program between a
// set-up and a teardown.
const epochs = 5

// sizes is the amount of work in one round of each workload.
type sizes struct {
	paperScale     float64 // sim-paper workload.Params.Scale
	pressureAllocs uint64  // sim-pressure churn allocations per thread
	churnOps       int     // net-churn operations per session
	taskOps        uint32  // net-tasks churn operations per task
}

var sizeTable = map[string]sizes{
	"full": {paperScale: 0.1, pressureAllocs: 4000, churnOps: 20000, taskOps: 2000},
	"toy":  {paperScale: 0.01, pressureAllocs: 200, churnOps: 200, taskOps: 100},
}

// runConfig is everything one invocation needs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizeName string
	size     sizes
	pins     pinTable
	workdir  string    // sockets and span files; inside the checkout
	log      io.Writer // human-readable progress
}

// roundResult is one timed round.
type roundResult struct {
	ops       uint64  // completed operations: the ops_per_s numerator
	attempted uint64  // operations attempted, refused ones included
	failed    uint64  // refused operations plus ops of failed checks
	seconds   float64 // host time of the timed calls
	checkErr  error   // a failed output check
}

// workloadRun is one workload's program state over a run.
type workloadRun interface {
	// boot performs one complete set-up.
	boot(tr *tracer) error
	// round runs one timed unit of work; a nil tracer is untraced.
	round(tr *tracer) (roundResult, error)
	// finish tears the booted program down and runs the checks that
	// need it quiesced.
	finish(tr *tracer) error
	// epochLatencyUS returns the median and 95th percentile host time
	// per operation over the untraced rounds since its last call, and
	// the sample count, and starts counting afresh.
	epochLatencyUS() (p50, p95 float64, n int)
	// layers runs the traced run's in-process references and adds the
	// per-layer metrics.
	layers(r *report) error
}

// workloadDef names a workload.
type workloadDef struct {
	name string
	new  func(c runConfig) workloadRun
	// boots is how many set-ups each epoch times; all but the last are
	// torn down and checked at once. setup_s is the median over every
	// boot of the run, so a set-up of a few milliseconds gets dozens of
	// samples.
	boots int
}

func workloads() []workloadDef {
	return []workloadDef{
		{"sim-paper", func(c runConfig) workloadRun { return newSimRun("sim-paper", simPaperSpec(c.size), c) }, 3},
		{"sim-pressure", func(c runConfig) workloadRun { return newSimRun("sim-pressure", simPressureSpec(c.size), c) }, 40},
		{"net-churn", func(c runConfig) workloadRun { return newNetChurnRun(c) }, 5},
		{"net-tasks", func(c runConfig) workloadRun { return newNetTasksRun(c) }, 30},
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	tr *tracer
}

func (r *report) layer(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// zero reports layers the workload never calls: they did no work.
func (r *report) zero(unit string, names ...string) {
	for _, name := range names {
		r.layer(name, 0, unit)
	}
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tintperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-paper, sim-pressure, net-churn or net-tasks")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	size := fs.String("size", "full", "work per round: full or toy")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "run"), "directory for sockets and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := sizeTable[*size]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "tintperf: bad --size %q, --trace %d or --seconds %g\n", *size, *trace, *seconds)
		return 2
	}
	c := runConfig{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sizeName: *size, size: sz, pins: defaultPins, workdir: *workdir,
	}
	r, err := run(c, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "tintperf: %v\n", err)
		return 2
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "tintperf: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// run executes one invocation. It returns an error, and no report,
// only when the program could not be set up at all.
func run(c runConfig, log io.Writer) (*report, error) {
	var def *workloadDef
	for _, w := range workloads() {
		if w.name == c.workload {
			w := w
			def = &w
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	c.log = log
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	r := &report{Correct: true, Metrics: make(map[string]metric), tr: tr}
	var ref hostRef
	ref.measure()

	// Each epoch boots the program def.boots times, runs timed rounds
	// on the last boot for its share of --seconds, tears the program
	// down and checks it, then times the reference kernel with nothing
	// of the program left running. A traced run spends the first half
	// of each epoch untraced, for trace.overhead_frac.
	w := def.new(c)
	var eps []epochStats
	var tracedRates []float64
	var checkErrs []error
	var ms0, ms1 runtime.MemStats
	var mallocs, gcs, untracedOps uint64
	share := c.seconds / epochs
	runStart := time.Now()
	for e := 0; e < epochs; e++ {
		var ep epochStats
		for b := 0; b < def.boots; b++ {
			if b > 0 {
				if err := w.finish(tr); err != nil {
					r.Correct = false
					checkErrs = append(checkErrs, err)
				}
			}
			runtime.GC()
			t0 := time.Now()
			if err := w.boot(tr); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
			}
			ep.setups = append(ep.setups, time.Since(t0).Seconds())
		}
		epochStart := time.Now()
		untraced, traced := 0, 0
		for {
			elapsed := time.Since(epochStart).Seconds()
			if elapsed >= share && untraced >= 1 && (!c.trace || traced >= 1) {
				break
			}
			var rtr *tracer
			if c.trace && untraced >= 1 && elapsed >= share/2 {
				rtr = tr
			}
			if c.trace && rtr == nil {
				runtime.ReadMemStats(&ms0)
			}
			rr, err := w.round(rtr)
			if err != nil {
				r.Correct = false
				checkErrs = append(checkErrs, err)
				break
			}
			r.Attempted += rr.attempted
			r.Failed += rr.failed
			if rr.checkErr != nil {
				r.Correct = false
				checkErrs = append(checkErrs, rr.checkErr)
			}
			rate := float64(rr.ops) / rr.seconds
			if rtr != nil {
				traced++
				tracedRates = append(tracedRates, rate)
			} else {
				untraced++
				ep.rates = append(ep.rates, rate)
			}
			if c.trace && rtr == nil {
				// Go runtime costs of the program alone, untraced.
				runtime.ReadMemStats(&ms1)
				mallocs += ms1.Mallocs - ms0.Mallocs
				gcs += uint64(ms1.NumGC - ms0.NumGC)
				untracedOps += rr.ops
			}
		}
		if err := w.finish(tr); err != nil {
			r.Correct = false
			checkErrs = append(checkErrs, err)
		}
		ep.p50, ep.p95, ep.n = w.epochLatencyUS()
		ref.measure()
		ep.speed = ref.epochSpeed(e)
		eps = append(eps, ep)
		fmt.Fprintf(log, "epoch %d: median set-up %.5fs of %d, %d rounds, median %.5g ops/s, op p50 %.4f us; reference kernel %.0f ns, host speed %.4f\n",
			e+1, median(ep.setups), def.boots, untraced+traced, median(ep.rates), ep.p50, median(ref.samples[len(ref.samples)-refSamples:]), ep.speed)
		if !r.Correct {
			break
		}
	}
	for _, err := range checkErrs {
		fmt.Fprintf(log, "CHECK FAILED: %v\n", err)
	}
	if len(checkErrs) > 0 && r.Failed == 0 {
		r.Failed = 1
	}
	if r.Attempted == 0 {
		r.Attempted = 1
	}

	raw, norm := hostTimes(eps, false), hostTimes(eps, true)
	fmt.Fprintf(log, "run: %d epochs, %d rounds (%d traced) in %.2fs, %d set-ups, %d latency samples; reference kernel median %.0f ns of %d samples\n",
		len(eps), len(raw.rates)+len(tracedRates), len(tracedRates), time.Since(runStart).Seconds(),
		len(raw.setups), raw.samples, median(ref.samples), len(ref.samples))
	// The result line carries the normalised values; the raw ones are
	// printed beside them so the choice can be checked on every run.
	fmt.Fprintf(log, "raw: %s\n", raw)
	fmt.Fprintf(log, "normalised: %s\n", norm)
	rss := peakRSSMB()
	if !c.trace {
		r.layer("ops_per_s", norm.ops, "1/s")
		r.layer("op_p50_us", norm.p50, "us")
		r.layer("op_p95_us", norm.p95, "us")
		r.layer("setup_s", norm.setup, "s")
		r.layer("peak_rss_mb", rss, "MB")
		return r, nil
	}

	if err := w.layers(r); err != nil {
		return nil, err
	}
	if len(tracedRates) > 0 && raw.ops > 0 {
		r.layer("trace.overhead_frac", 1-median(tracedRates)/raw.ops, "frac")
	}
	r.layer("go.allocs_per_op", ratio(mallocs, untracedOps), "count")
	r.layer("go.gc_cpu_frac", ms1.GCCPUFraction, "frac")
	r.layer("go.gc_cycles", float64(gcs), "count")
	r.layer("host.ref_ms", median(ref.samples)/1e6, "ms")
	for _, name := range sortedNames(r.Metrics) {
		fmt.Fprintf(log, "  %-26s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans: %s\n", path)
	return r, nil
}

// epochStats is what one epoch measured, untraced.
type epochStats struct {
	setups   []float64 // seconds per set-up
	rates    []float64 // ops/s per round
	p50, p95 float64   // µs per op
	n        int       // latency samples
	speed    float64   // host speed around the epoch (hostRef.epochSpeed)
}

// hostTime is a run's host-time metrics, raw or normalised.
type hostTime struct {
	ops, setup, p50, p95 float64
	rates, setups        []float64
	samples              int
}

// hostTimes pools the epochs: ops_per_s is the median of every
// round's rate, setup_s the median of every set-up, and the latency
// pair the median of the epochs' percentiles. normalised divides each
// epoch's values by its host speed first.
func hostTimes(eps []epochStats, normalised bool) hostTime {
	var h hostTime
	var p50s, p95s []float64
	for _, ep := range eps {
		s := 1.0
		if normalised {
			s = ep.speed
		}
		for _, x := range ep.rates {
			h.rates = append(h.rates, x/s)
		}
		for _, x := range ep.setups {
			h.setups = append(h.setups, x*s)
		}
		p50s = append(p50s, ep.p50*s)
		p95s = append(p95s, ep.p95*s)
		h.samples += ep.n
	}
	h.ops, h.setup = median(h.rates), median(h.setups)
	h.p50, h.p95 = median(p50s), median(p95s)
	return h
}

func (h hostTime) String() string {
	return fmt.Sprintf("ops_per_s=%.1f setup_s=%.6f op_p50_us=%.4f op_p95_us=%.4f", h.ops, h.setup, h.p50, h.p95)
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func joinErrs(errs []error) error {
	var live []error
	for _, err := range errs {
		if err != nil {
			live = append(live, err)
		}
	}
	return errors.Join(live...)
}

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
