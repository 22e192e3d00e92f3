package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
)

// TestCheckFlags pins the usage-error surface: a flag value or
// combination main does not run must fail before any experiment
// starts, rather than print nothing and exit 0, run at a size nobody
// asked for, or fail only after the whole run. "offload" names an
// experiment that was removed.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		exp, format, suite string
		scale, mem         float64
		repeats            int
	}
	ok := flags{exp: "all", format: "table", scale: 1, mem: 2, repeats: 3}
	check := func(f flags) error {
		return checkFlags(f.exp, f.format, f.suite, f.scale, f.mem, f.repeats)
	}
	for _, exp := range experiments {
		f := ok
		f.exp = exp
		if err := check(f); err != nil {
			t.Errorf("-exp %s: %v", exp, err)
		}
	}
	for _, f := range []flags{
		{exp: "all", format: "csv", scale: 0.05, mem: 0.5, repeats: 1},
		{exp: "all", format: "chart", suite: "list", scale: 1, mem: 2, repeats: 1},
		{exp: "all", format: "json", suite: "smoke", scale: 1, mem: 2, repeats: 1},
	} {
		if err := check(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
	bad := func(mut func(*flags)) flags {
		f := ok
		mut(&f)
		return f
	}
	for _, f := range []flags{
		bad(func(f *flags) { f.exp = "nosuchexp" }),
		bad(func(f *flags) { f.exp = "offload" }),
		bad(func(f *flags) { f.exp = "" }),
		bad(func(f *flags) { f.format = "xml" }),
		bad(func(f *flags) { f.scale = 0 }),
		bad(func(f *flags) { f.scale = -1 }),
		bad(func(f *flags) { f.scale = math.NaN() }),
		bad(func(f *flags) { f.scale = math.Inf(1) }),
		bad(func(f *flags) { f.mem = 0 }),
		bad(func(f *flags) { f.mem = -1 }),
		bad(func(f *flags) { f.mem = math.NaN() }),
		bad(func(f *flags) { f.mem = math.Inf(1) }),
		bad(func(f *flags) { f.repeats = 0 }),
		bad(func(f *flags) { f.repeats = -2 }),
		bad(func(f *flags) { f.suite, f.format = "smoke", "chart" }),
		bad(func(f *flags) { f.suite, f.exp = "smoke", "bench" }),
		bad(func(f *flags) { f.suite, f.exp = "list", "serve" }),
	} {
		if err := check(f); err == nil {
			t.Errorf("%+v accepted", f)
		}
	}
}

// TestWrite pins the one writer: each format picks its render, a
// result without a chart renders its table under -format chart, and
// the suite matrix renders Fig. 11, Fig. 12 or both, a blank line
// apart.
func TestWrite(t *testing.T) {
	empty := &bench.SuiteResult{}
	var fig11, fig12 strings.Builder
	empty.WriteRuntimeTable(&fig11)
	empty.WriteIdleTable(&fig12)
	for _, c := range []struct {
		r            result
		format, want string
	}{
		{fake{}, "table", "table"},
		{fake{}, "csv", "csv"},
		{fake{}, "json", "json"},
		{fake{}, "chart", "table"},
		{fakeChart{}, "chart", "chart"},
		{fakeChart{}, "table", "table"},
		{suiteFigs{empty, true, false}, "table", fig11.String()},
		{suiteFigs{empty, false, true}, "table", fig12.String()},
		{suiteFigs{empty, true, true}, "table", fig11.String() + "\n" + fig12.String()},
	} {
		var sb strings.Builder
		if err := write(&sb, c.r, c.format); err != nil {
			t.Fatal(err)
		}
		if sb.String() != c.want {
			t.Errorf("write(%T, %s) = %q, want %q", c.r, c.format, sb.String(), c.want)
		}
	}
}

// fake names the render write called.
type fake struct{}

func (fake) WriteTable(w io.Writer) { fmt.Fprint(w, "table") }

func (fake) WriteCSV(w io.Writer) error {
	_, err := fmt.Fprint(w, "csv")
	return err
}

func (fake) WriteJSON(w io.Writer) error {
	_, err := fmt.Fprint(w, "json")
	return err
}

type fakeChart struct{ fake }

func (fakeChart) WriteChart(w io.Writer) { fmt.Fprint(w, "chart") }
