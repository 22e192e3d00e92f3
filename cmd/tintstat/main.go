// tintstat is the statistical benchmark-regression gate: it compares
// two format-2 BENCH_*.json reports (engine or serve harness)
// and decides — with Welch's t-test over the raw per-sample
// throughput distributions — whether the new report is significantly
// slower than the old one.
//
// Usage:
//
//	tintstat [flags] OLD.json NEW.json
//
//	-alpha 0.05      significance level for Welch's t-test
//	-threshold 2.0   minimum mean regression (percent) to gate on
//	-format text     output: text|csv|json
//	-exact-ops       additionally require the deterministic work
//	                 counters (engine ops, cells) to match exactly
//	-exact-allocs    additionally require host allocs/op not to grow
//	                 beyond the old report's (2% + 0.01 tolerance;
//	                 old series without the measurement are skipped,
//	                 but a series the baseline measured must still
//	                 exist and be measured in the new report)
//	-o FILE          write the delta table to FILE instead of stdout
//
// The exit status is the contract CI relies on, mirroring tintvet:
// 0 when no significant regression was found, 1 when at least one
// series regressed significantly (or an exactness gate found a
// mismatch), 2 when the inputs could not be loaded or compared.
//
// Wall-clock throughputs are only comparable when both reports come
// from the same host; the deterministic counters checked by
// -exact-ops are comparable everywhere (the simulator is a pure
// function of its seeds).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tintmalloc/tintmalloc/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tintstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alpha       = fs.Float64("alpha", 0.05, "significance level for Welch's t-test")
		threshold   = fs.Float64("threshold", 2.0, "minimum mean regression (percent) to gate on")
		format      = fs.String("format", "text", "output format: text|csv|json")
		exactOps    = fs.Bool("exact-ops", false, "require deterministic work counters to match exactly")
		exactAllocs = fs.Bool("exact-allocs", false, "require host allocs/op not to grow vs the old report")
		outPath     = fs.String("o", "", "write the delta table to this file instead of stdout")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tintstat [flags] OLD.json NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(stderr, "tintstat: unknown format %q\n", *format)
		return 2
	}
	if *alpha <= 0 || *alpha >= 1 {
		fmt.Fprintf(stderr, "tintstat: -alpha must be in (0, 1), have %v\n", *alpha)
		return 2
	}

	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldKind, oldSeries, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "tintstat:", err)
		return 2
	}
	newKind, newSeries, err := benchfmt.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "tintstat:", err)
		return 2
	}
	if oldKind != newKind {
		fmt.Fprintf(stderr, "tintstat: report kinds differ: %s is %s, %s is %s\n",
			oldPath, oldKind, newPath, newKind)
		return 2
	}

	cmp := compare(oldSeries, newSeries, compareOpts{
		Alpha:       *alpha,
		Threshold:   *threshold,
		ExactOps:    *exactOps,
		ExactAllocs: *exactAllocs,
	})
	cmp.Kind = oldKind
	cmp.OldPath, cmp.NewPath = oldPath, newPath

	out := io.Writer(stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "tintstat:", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	switch *format {
	case "text":
		cmp.WriteText(out)
	case "csv":
		err = cmp.WriteCSV(out)
	case "json":
		err = cmp.WriteJSON(out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tintstat:", err)
		return 2
	}
	if cmp.Gated() {
		return 1
	}
	return 0
}
