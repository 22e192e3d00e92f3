// Command tintreport re-measures every graded claim of the paper's
// evaluation and emits a markdown paper-vs-measured report — the
// regenerable core of EXPERIMENTS.md.
//
// Usage:
//
//	tintreport                      # full-scale, ~minutes
//	tintreport -scale 0.4           # faster, claims still hold
//	tintreport > report.md
//
// Exit status: 0 when every claim holds, 1 when a claim fails or a
// run breaks, 2 for bad flags (rejected before anything boots).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its exit status (see the package doc).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tintreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 1.0, "working-set scale factor")
		repeats  = fs.Int("repeats", 1, "repetitions for the Fig. 10 cells")
		seed     = fs.Int64("seed", 1, "base random seed")
		memGiB   = fs.Float64("mem", 2, "installed memory in GiB")
		parallel = fs.Int("parallel", runtime.NumCPU(), "concurrent cells (identical report, faster wall clock)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkFlags(*scale, *memGiB, *repeats); err != nil {
		fmt.Fprintln(stderr, "tintreport:", err)
		return 2
	}

	mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: uint64(*memGiB * (1 << 30))})
	if err != nil {
		fmt.Fprintln(stderr, "tintreport:", err)
		return 1
	}
	rep, err := bench.RunPaperValidation(mach,
		workload.Params{Seed: *seed, Scale: *scale}, *repeats, *parallel, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tintreport:", err)
		return 1
	}
	rep.WriteMarkdown(stdout)
	if rep.Passed() != len(rep.Results) {
		return 1
	}
	return 0
}

// checkFlags rejects run parameters that would otherwise be coerced:
// a -scale <= 0 runs at paper size, a negative -mem converts to an
// enormous byte count, and -repeats < 1 runs once.
func checkFlags(scale, memGiB float64, repeats int) error {
	if !(scale > 0) || math.IsInf(scale, 0) {
		return fmt.Errorf("-scale: must be finite and > 0, have %v", scale)
	}
	if !(memGiB > 0) || math.IsInf(memGiB, 0) {
		return fmt.Errorf("-mem: must be finite and > 0, have %v", memGiB)
	}
	if repeats < 1 {
		return fmt.Errorf("-repeats: must be >= 1, have %d", repeats)
	}
	return nil
}
