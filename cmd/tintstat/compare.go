package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/tintmalloc/tintmalloc/internal/benchfmt"
	"github.com/tintmalloc/tintmalloc/internal/stats"
)

type compareOpts struct {
	Alpha     float64
	Threshold float64 // percent
	ExactOps  bool
	// ExactAllocs gates on allocs/op growth: a series whose new
	// allocs_per_op exceeds the old by more than 2% + 0.01 absolute
	// (headroom for runtime background noise in the Mallocs counter)
	// is a mismatch. The measurement contract is one-sided: an old
	// series without the field is skipped (older report files predate
	// it), but once a baseline measured a series, the new report must
	// measure it too — and the series itself must still exist. A
	// vanished series would otherwise shrink the gate's coverage
	// silently.
	ExactAllocs bool
}

// deltaRow is one series' old-vs-new comparison.
type deltaRow struct {
	Key  string `json:"key"`
	Unit string `json:"unit"`
	// Mean throughputs and sample counts per side.
	OldMean float64 `json:"old_mean"`
	NewMean float64 `json:"new_mean"`
	OldN    int     `json:"old_n"`
	NewN    int     `json:"new_n"`
	// CI95 half-widths (NaN with fewer than two samples).
	OldCI95 float64 `json:"old_ci95"`
	NewCI95 float64 `json:"new_ci95"`
	// DeltaPct is the relative mean change, higher = better
	// (throughput), NaN when the old mean is unusable.
	DeltaPct float64 `json:"delta_pct"`
	// Welch's t-test of new vs old samples. P is NaN when either side
	// has fewer than two samples.
	T float64 `json:"t"`
	P float64 `json:"p"`
	// Significant: P < alpha. Regression: significant AND the mean
	// dropped by more than the threshold.
	Significant bool `json:"significant"`
	Regression  bool `json:"regression"`
	// Deterministic work counters (exact-ops gate).
	OldOps      uint64 `json:"old_ops"`
	NewOps      uint64 `json:"new_ops"`
	OldCells    int    `json:"old_cells"`
	NewCells    int    `json:"new_cells"`
	OpsMismatch bool   `json:"ops_mismatch,omitempty"`
	// Host allocations per op (exact-allocs gate; 0 = unmeasured).
	OldAllocsPerOp float64 `json:"old_allocs_per_op,omitempty"`
	NewAllocsPerOp float64 `json:"new_allocs_per_op,omitempty"`
	AllocsMismatch bool    `json:"allocs_mismatch,omitempty"`
}

// comparison is the full delta table plus the gate verdict.
type comparison struct {
	Kind    benchfmt.Kind `json:"kind"`
	OldPath string        `json:"old"`
	NewPath string        `json:"new"`
	Opts    compareOpts   `json:"opts"`
	Rows    []deltaRow    `json:"rows"`
	// Keys present in only one input (reported, and a mismatch under
	// -exact-ops or -exact-allocs, but not a statistical regression).
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
	// Gate tallies.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"` // significant gains
	Mismatches   int `json:"mismatches"`   // exact-ops failures
}

// Gated reports whether the exit-1 contract fires.
func (c *comparison) Gated() bool {
	return c.Regressions > 0 || c.Mismatches > 0
}

func compare(oldSeries, newSeries []benchfmt.Series, opts compareOpts) *comparison {
	out := &comparison{Opts: opts}
	newByKey := map[string]*benchfmt.Series{}
	for i := range newSeries {
		newByKey[newSeries[i].Key] = &newSeries[i]
	}
	matched := map[string]bool{}
	for i := range oldSeries {
		o := &oldSeries[i]
		n, ok := newByKey[o.Key]
		if !ok {
			out.OnlyOld = append(out.OnlyOld, o.Key)
			// Either exactness gate treats a vanished baseline series as
			// a mismatch: the deterministic work (or its alloc budget) it
			// pinned is no longer being checked at all.
			if opts.ExactOps || opts.ExactAllocs {
				out.Mismatches++
			}
			continue
		}
		matched[o.Key] = true
		out.Rows = append(out.Rows, deltaOf(o, n, opts))
	}
	for i := range newSeries {
		if !matched[newSeries[i].Key] {
			out.OnlyNew = append(out.OnlyNew, newSeries[i].Key)
			if opts.ExactOps || opts.ExactAllocs {
				out.Mismatches++
			}
		}
	}
	for i := range out.Rows {
		r := &out.Rows[i]
		if r.Regression {
			out.Regressions++
		}
		if r.Significant && r.DeltaPct > 0 {
			out.Improvements++
		}
		if r.OpsMismatch {
			out.Mismatches++
		}
		if r.AllocsMismatch {
			out.Mismatches++
		}
	}
	return out
}

func deltaOf(o, n *benchfmt.Series, opts compareOpts) deltaRow {
	os, ns := stats.Summarize(o.Samples), stats.Summarize(n.Samples)
	r := deltaRow{
		Key: o.Key, Unit: o.Unit,
		OldMean: os.Mean, NewMean: ns.Mean,
		OldN: len(o.Samples), NewN: len(n.Samples),
		OldCI95: ciHalf(os), NewCI95: ciHalf(ns),
		DeltaPct: stats.PercentChange(os.Mean, ns.Mean),
		OldOps:   o.Ops, NewOps: n.Ops,
		OldCells: o.Cells, NewCells: n.Cells,
	}
	tt := stats.Welch(o.Samples, n.Samples)
	r.T, r.P = tt.T, tt.P
	r.Significant = !math.IsNaN(r.P) && r.P < opts.Alpha
	r.Regression = r.Significant && r.DeltaPct < -opts.Threshold
	if opts.ExactOps {
		r.OpsMismatch = o.Ops != n.Ops || o.Cells != n.Cells
	}
	r.OldAllocsPerOp, r.NewAllocsPerOp = o.AllocsPerOp, n.AllocsPerOp
	// One-sided: an unmeasured baseline is skipped, but a measured
	// baseline pins the series — the new side failing to measure it is
	// itself a mismatch, not a silent skip.
	if opts.ExactAllocs && o.HasAllocs {
		r.AllocsMismatch = !n.HasAllocs || n.AllocsPerOp > o.AllocsPerOp*1.02+0.01
	}
	return r
}

func ciHalf(s stats.Summary) float64 {
	lo, hi := s.CI95()
	return (hi - lo) / 2
}

// fval renders a float compactly for the text table, keeping NaN
// visible (it marks "not computable", never a plausible number).
func fval(v float64, prec int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// WriteText prints the human delta table. The layout is pinned by
// golden tests; grep-stable column order: key, unit, old, new,
// delta%, p, marks.
func (c *comparison) WriteText(w io.Writer) {
	fmt.Fprintf(w, "tintstat: %s throughput delta, %s -> %s (alpha %g, threshold %g%%)\n",
		c.Kind, c.OldPath, c.NewPath, c.Opts.Alpha, c.Opts.Threshold)
	fmt.Fprintf(w, "%-24s %-9s %16s %16s %9s %8s  %s\n",
		"key", "unit", "old mean ±ci95", "new mean ±ci95", "delta%", "p", "verdict")
	for _, r := range c.Rows {
		verdict := ""
		switch {
		case r.Regression:
			verdict = "REGRESSION"
		case r.Significant && r.DeltaPct > 0:
			verdict = "improved"
		case r.Significant:
			verdict = "significant"
		}
		if r.OpsMismatch {
			if verdict != "" {
				verdict += ","
			}
			verdict += "OPS-MISMATCH"
		}
		if r.AllocsMismatch {
			if verdict != "" {
				verdict += ","
			}
			verdict += "ALLOC-GROWTH"
		}
		fmt.Fprintf(w, "%-24s %-9s %16s %16s %9s %8s  %s\n",
			r.Key, r.Unit,
			fval(r.OldMean, 0)+"±"+fval(r.OldCI95, 0),
			fval(r.NewMean, 0)+"±"+fval(r.NewCI95, 0),
			fval(r.DeltaPct, 2), fval(r.P, 4), verdict)
	}
	for _, k := range c.OnlyOld {
		fmt.Fprintf(w, "only in %s: %s\n", c.OldPath, k)
	}
	for _, k := range c.OnlyNew {
		fmt.Fprintf(w, "only in %s: %s\n", c.NewPath, k)
	}
	fmt.Fprintf(w, "%d series compared: %d regressions, %d improvements, %d mismatches\n",
		len(c.Rows), c.Regressions, c.Improvements, c.Mismatches)
}

// WriteCSV emits one row per compared series.
func (c *comparison) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"key", "unit", "old_mean", "new_mean",
		"old_n", "new_n", "old_ci95", "new_ci95", "delta_pct", "t", "p",
		"significant", "regression", "old_ops", "new_ops", "ops_mismatch",
		"old_allocs_per_op", "new_allocs_per_op", "allocs_mismatch"}); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range c.Rows {
		if err := cw.Write([]string{r.Key, r.Unit, g(r.OldMean), g(r.NewMean),
			strconv.Itoa(r.OldN), strconv.Itoa(r.NewN), g(r.OldCI95), g(r.NewCI95),
			g(r.DeltaPct), g(r.T), g(r.P),
			strconv.FormatBool(r.Significant), strconv.FormatBool(r.Regression),
			strconv.FormatUint(r.OldOps, 10), strconv.FormatUint(r.NewOps, 10),
			strconv.FormatBool(r.OpsMismatch),
			g(r.OldAllocsPerOp), g(r.NewAllocsPerOp),
			strconv.FormatBool(r.AllocsMismatch)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the whole comparison. NaN fields are rendered as
// null (JSON has no NaN), via a lossless string round-trip guard.
func (c *comparison) WriteJSON(w io.Writer) error {
	// encoding/json rejects NaN; swap NaNs for null explicitly.
	type jsonRow struct {
		deltaRow
		OldCI95  any `json:"old_ci95"`
		NewCI95  any `json:"new_ci95"`
		DeltaPct any `json:"delta_pct"`
		T        any `json:"t"`
		P        any `json:"p"`
	}
	nn := func(v float64) any {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return v
	}
	view := struct {
		*comparison
		Rows []jsonRow `json:"rows"`
	}{comparison: c}
	for _, r := range c.Rows {
		view.Rows = append(view.Rows, jsonRow{deltaRow: r,
			OldCI95: nn(r.OldCI95), NewCI95: nn(r.NewCI95),
			DeltaPct: nn(r.DeltaPct), T: nn(r.T), P: nn(r.P)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(view)
}
