// Command tintbench regenerates the TintMalloc paper's evaluation:
// the local/remote latency primer, the synthetic benchmark sweep
// (Fig. 10), the benchmark-suite runtime and idle matrices (Figs. 11
// and 12) and the per-thread breakdowns (Figs. 13 and 14).
//
// Every experiment runs its cells through the deterministic
// scatter/gather runner, so -parallel only changes wall-clock time:
// output is byte-identical at any worker count.
//
// Usage:
//
//	tintbench -exp all                     # everything, paper sizes
//	tintbench -exp fig11 -scale 0.25 -repeats 3
//	tintbench -exp fig13 -workload lbm -config 16_threads_4_nodes
//	tintbench -exp bench -scale 0.1        # perf harness -> BENCH_engine.json
//	tintbench -exp adaptive                # adaptive-vs-static matrix + chaos rerun
//	tintbench -suite list                  # show the suite registry
//	tintbench -suite smoke                 # run a registry suite
//	tintbench -suites my.toml -suite mine  # user registry over defaults
//
// The figure experiments (-exp fig10..fig14 and detail) run the
// embedded registry entries fig10, paper, perthread-lbm and
// detail-lbm (internal/suite) through suite.Run; -config/-workload and
// -configs/-workloads, when given, replace the entry's configs and
// workloads. -suite runs any registry entry by name, and -suites
// merges a user TOML/JSON file over the embedded defaults for -suite
// runs only. Explicit -scale/-repeats/-seed flags override a -suite
// entry's values; under -exp, an entry's own values win (perthread-lbm
// pins one repeat).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/suite"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|"))
		scale      = flag.Float64("scale", 1.0, "working-set scale factor (1.0 = paper-size)")
		repeats    = flag.Int("repeats", 3, "repetitions per cell (paper used 10)")
		seed       = flag.Int64("seed", 1, "base random seed")
		memGiB     = flag.Float64("mem", 2, "installed physical memory in GiB")
		cfgName    = flag.String("config", "16_threads_4_nodes", "configuration for fig10/fig13/fig14/detail/sweep/chaos")
		wlName     = flag.String("workload", "lbm", "workload for fig13/fig14/detail/sweep")
		wlFilter   = flag.String("workloads", "", "comma-separated workloads for fig11/fig12/chaos (default: all six)")
		cfgFilter  = flag.String("configs", "", "comma-separated configs for fig11/fig12 (default: all five)")
		overlapped = flag.Bool("overlapped", false, "use the paper-faithful overlapped Opteron bit mapping")
		format     = flag.String("format", "table", "output format: table|csv|chart|json")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "concurrent cells per experiment (identical results, faster wall clock)")
		sweepParam = flag.String("sweep", "hop-cycles", "parameter for -exp sweep: hop-cycles|row-penalty|llc-ways")
		sweepVals  = flag.String("sweep-values", "0,10,25,50,100", "comma-separated values for -exp sweep")
		planNames  = flag.String("plans", "", "comma-separated fault plans for -exp chaos (default: all named plans)")
		chaosPol   = flag.String("policy", "MEM+LLC", "coloring policy for -exp chaos")
		benchOut   = flag.String("out", "BENCH_engine.json", "output file for -exp bench")
		benchPar   = flag.String("bench-parallel", "1,8", "comma-separated -parallel values the bench harness compares")
		benchSamp  = flag.Int("bench-samples", 3, "wall-clock re-timings per cell for -exp bench/serve (raw samples land in the report)")
		suitesFile = flag.String("suites", "", "suite registry file (TOML or JSON), merged over the embedded defaults")
		suiteName  = flag.String("suite", "", "run a registry suite by name instead of -exp (\"list\" shows the registry)")
		serveOut   = flag.String("serve-out", "BENCH_serve.json", "output file for -exp serve")
		serveOps   = flag.Int("serve-ops", 20000, "churn operations per client for -exp serve")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if err := checkFlags(*exp, *format, *suiteName, *scale, *memGiB, *repeats); err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
		}()
	}

	memBytes := uint64(*memGiB * (1 << 30))
	params := workload.Params{Seed: *seed, Scale: *scale}
	csvOut := *format == "csv"
	chartOut := *format == "chart"
	jsonOut := *format == "json"

	if *exp == "bench" {
		if err := runBenchHarness(os.Stdout, *benchOut, *benchPar, memBytes, params, *repeats, *benchSamp); err != nil {
			fatal(err)
		}
		return
	}

	// The serve experiment measures real goroutine concurrency, so it
	// is wall-clock dependent and — like -exp bench — excluded from
	// -exp all, whose outputs are byte-identical at any -parallel.
	if *exp == "serve" {
		if err := runServeHarness(os.Stdout, *serveOut, memBytes, *serveOps, *benchSamp, serve.Config{}); err != nil {
			fatal(err)
		}
		return
	}

	mach, err := bench.NewMachine(bench.MachineOptions{
		MemBytes:   memBytes,
		Overlapped: *overlapped,
	})
	if err != nil {
		fatal(err)
	}

	// Registry-driven suite mode: -suite replaces -exp entirely.
	if *suiteName != "" {
		reg, err := suite.Load(*suitesFile)
		if err != nil {
			fatal(err)
		}
		if *suiteName == "list" {
			for _, s := range reg.Suites {
				fmt.Printf("%-16s %s\n", s.Name, s.Description)
			}
			return
		}
		s, err := reg.ByName(*suiteName)
		if err != nil {
			fatal(err)
		}
		// Flags the user typed explicitly beat the registry entry;
		// entry values beat the flag defaults (suite.Effective).
		if given["scale"] {
			s.Scale = *scale
		}
		if given["seed"] {
			s.Seed = *seed
		}
		if given["repeats"] {
			s.Repeats = *repeats
		}
		r, err := suite.Run(mach, s, params, *repeats, *parallel)
		if err != nil {
			fatal(err)
		}
		switch {
		case csvOut:
			err = r.WriteCSV(os.Stdout)
		case jsonOut:
			err = r.WriteJSON(os.Stdout)
		default:
			r.WriteTable(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	// figure runs one of the paper's matrices from the embedded
	// registry, with its workloads and configs replaced by any given
	// (non-nil) here.
	figure := func(entry string, workloads, configs []string) ([]bench.Cell, error) {
		s, err := suite.Default().ByName(entry)
		if err != nil {
			return nil, err
		}
		if workloads != nil {
			s.Workloads = nil
			for _, name := range workloads {
				s.Workloads = append(s.Workloads, suite.WorkloadSpec{Driver: name})
			}
		}
		if configs != nil {
			s.Configs = configs
		}
		r, err := suite.Run(mach, s, params, *repeats, *parallel)
		if err != nil {
			return nil, err
		}
		return r.Cells, nil
	}
	// The single-workload, single-config figures take -workload and
	// -config only when they were typed: the flag defaults serve sweep
	// and chaos, and the registry entry is the figures' default.
	var oneWorkload, oneConfig []string
	if given["workload"] {
		oneWorkload = []string{*wlName}
	}
	if given["config"] {
		oneConfig = []string{*cfgName}
	}

	run := func(name string, f func() error) {
		if *exp != name && !(*exp == "all" && name != "detail" && name != "sweep" && name != "chaos") {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	run("latency", func() error {
		r, err := bench.RunLatency(mach, 0, 512, *parallel)
		if err != nil {
			return err
		}
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		}
		r.WriteTable(os.Stdout)
		return nil
	})

	run("detail", func() error {
		cells, err := figure("detail-lbm", oneWorkload, oneConfig)
		if err != nil {
			return err
		}
		r := bench.NewDetailResult(cells)
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		}
		r.WriteTable(os.Stdout)
		return nil
	})

	run("sweep", func() error {
		wl, err := workload.ByName(*wlName)
		if err != nil {
			return err
		}
		vals, err := parseFloats(*sweepVals)
		if err != nil {
			return err
		}
		r, err := bench.RunSweep(bench.SweepParam(*sweepParam), vals, wl, *cfgName,
			params, *repeats, memBytes, *parallel)
		if err != nil {
			return err
		}
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		case chartOut:
			r.WriteChart(os.Stdout)
			return nil
		}
		r.WriteTable(os.Stdout)
		return nil
	})

	run("chaos", func() error {
		loads, err := selectWorkloads(*wlFilter)
		if err != nil {
			return err
		}
		cfg, err := bench.ConfigByName(mach.Topo, *cfgName)
		if err != nil {
			return err
		}
		plans, err := selectPlans(*planNames)
		if err != nil {
			return err
		}
		r, err := bench.RunChaos(mach, cfg, *chaosPol, loads, plans, params, *parallel)
		if err != nil {
			return err
		}
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		}
		r.WriteTable(os.Stdout)
		return nil
	})

	// The adaptive engine showcase (DESIGN.md Sec. 15) runs on its own
	// dedicated machine — small, single-node, aged — rather than the
	// shared -mem one: the experiment's point is capacity pressure, and
	// RunAdaptiveMatrix runs at scale 1 whatever -scale says, since
	// heteromix scales two of its sizes and a smaller mix never makes
	// the classifier switch. Every cell runs twice (byte-identical or
	// the run fails), the clean adaptive cell is rerun under the
	// migrate-flaky fault plan, and Check() enforces the acceptance
	// criteria: adaptive beats every static policy on runtime with
	// fewer degraded allocations than static MEM.
	run("adaptive", func() error {
		amach, err := bench.NewAdaptiveMachine()
		if err != nil {
			return err
		}
		plan, err := fault.PlanByName("migrate-flaky")
		if err != nil {
			return err
		}
		r, err := bench.RunAdaptiveMatrix(amach, params, &plan)
		if err != nil {
			return err
		}
		if err := r.Check(); err != nil {
			return err
		}
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		}
		r.WriteTable(os.Stdout)
		return nil
	})

	run("fig10", func() error {
		cells, err := figure("fig10", nil, oneConfig)
		if err != nil {
			return err
		}
		r := bench.NewFig10Result(cells)
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		case chartOut:
			r.WriteChart(os.Stdout)
			return nil
		}
		r.WriteTable(os.Stdout)
		return nil
	})

	// fig11 and fig12 share the same runs; under -exp all compute once.
	paper := func(runtime, idle bool) error {
		cells, err := figure("paper", splitList(*wlFilter), splitList(*cfgFilter))
		if err != nil {
			return err
		}
		r := bench.NewSuiteResult(cells)
		if csvOut {
			return r.WriteCSV(os.Stdout)
		}
		if jsonOut {
			return r.WriteJSON(os.Stdout)
		}
		if runtime {
			if chartOut {
				r.WriteRuntimeChart(os.Stdout)
			} else {
				r.WriteRuntimeTable(os.Stdout)
			}
		}
		if runtime && idle {
			fmt.Println()
		}
		if idle {
			if chartOut {
				r.WriteIdleChart(os.Stdout)
			} else {
				r.WriteIdleTable(os.Stdout)
			}
		}
		return nil
	}
	if *exp == "all" {
		if err := paper(true, true); err != nil {
			fatal(err)
		}
		fmt.Println()
	} else {
		run("fig11", func() error { return paper(true, false) })
		run("fig12", func() error { return paper(false, true) })
	}

	perThread := func() error {
		cells, err := figure("perthread-lbm", oneWorkload, oneConfig)
		if err != nil {
			return err
		}
		r := bench.NewPerThreadResult(cells)
		switch {
		case csvOut:
			return r.WriteCSV(os.Stdout)
		case jsonOut:
			return r.WriteJSON(os.Stdout)
		}
		r.WriteTables(os.Stdout)
		return nil
	}
	if *exp == "fig13" || *exp == "fig14" || *exp == "all" {
		if err := perThread(); err != nil {
			fatal(err)
		}
	}
}

// experiments lists every -exp value main runs.
var experiments = []string{
	"latency", "fig10", "fig11", "fig12", "fig13", "fig14", "detail",
	"sweep", "chaos", "adaptive", "bench", "serve", "all",
}

// checkFlags rejects flag values and combinations main does not run,
// before any experiment starts.
func checkFlags(exp, format, suiteName string, scale, memGiB float64, repeats int) error {
	if !slices.Contains(experiments, exp) {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, strings.Join(experiments, "|"))
	}
	switch format {
	case "table", "csv", "chart", "json":
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return fmt.Errorf("-scale: must be finite and > 0, have %v", scale)
	}
	if !(memGiB > 0) || math.IsInf(memGiB, 0) {
		return fmt.Errorf("-mem: must be finite and > 0, have %v", memGiB)
	}
	if repeats < 1 {
		return fmt.Errorf("-repeats: must be >= 1, have %d", repeats)
	}
	if suiteName != "" && (exp == "bench" || exp == "serve") {
		return fmt.Errorf("-suite does not combine with -exp %s", exp)
	}
	if suiteName != "" && suiteName != "list" && format == "chart" {
		return fmt.Errorf("-format chart is not supported in suite mode (use table, csv or json)")
	}
	return nil
}

func parseFloats(csv string) ([]float64, error) {
	var vals []float64
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func selectWorkloads(filter string) ([]workload.Workload, error) {
	if filter == "" {
		return workload.StandardSuite(), nil
	}
	var out []workload.Workload
	for _, name := range strings.Split(filter, ",") {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func selectPlans(filter string) ([]fault.Plan, error) {
	if filter == "" {
		return fault.Plans(), nil
	}
	var out []fault.Plan
	for _, name := range strings.Split(filter, ",") {
		p, err := fault.PlanByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// splitList splits a comma-separated flag value; empty means none.
func splitList(csv string) []string {
	if csv == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		out = append(out, strings.TrimSpace(name))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tintbench:", err)
	os.Exit(1)
}
