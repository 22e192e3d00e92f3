package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s drifted from golden file (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func td(name string) string { return filepath.Join("testdata", name) }

func runStat(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// The exit-status contract CI relies on, mirroring tintvet: 0 no
// significant regression, 1 gate fired, 2 inputs unusable.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-change", []string{td("engine_old.json"), td("engine_ok.json")}, 0},
		{"regression", []string{td("engine_old.json"), td("engine_regress.json")}, 1},
		{"improvement", []string{td("engine_regress.json"), td("engine_old.json")}, 0},
		{"same-file", []string{td("engine_old.json"), td("engine_old.json")}, 0},
		{"exact-ops-clean", []string{"-exact-ops", td("engine_old.json"), td("engine_ok.json")}, 0},
		{"exact-ops-drift", []string{"-exact-ops", td("engine_old.json"), td("engine_opsdrift.json")}, 1},
		// Single-sample records: a big drop is reported but cannot be
		// statistically significant, so it does not gate.
		{"single-sample-no-gate", []string{td("engine_single_old.json"), td("engine_single_slow.json")}, 0},
		// A sky-high threshold turns a significant drop into a pass.
		{"threshold", []string{"-threshold", "50", td("engine_old.json"), td("engine_regress.json")}, 0},
		// alpha 0.000001: the drop stops being significant.
		{"alpha", []string{"-alpha", "0.000001", td("engine_old.json"), td("engine_regress.json")}, 0},
		{"missing-file", []string{td("engine_old.json"), td("no_such.json")}, 2},
		{"kind-mismatch", []string{td("engine_old.json"), td("serve_old.json")}, 2},
		{"serve-vs-serve", []string{td("serve_old.json"), td("serve_old.json")}, 0},
		{"bad-format", []string{"-format", "yaml", td("engine_old.json"), td("engine_ok.json")}, 2},
		{"bad-alpha", []string{"-alpha", "1.5", td("engine_old.json"), td("engine_ok.json")}, 2},
		{"no-args", nil, 2},
		{"one-arg", []string{td("engine_old.json")}, 2},
		{"bad-flag", []string{"-bogus"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, errb := runStat(t, c.args...)
			if code != c.want {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, c.want, errb)
			}
		})
	}
}

func TestGoldenText(t *testing.T) {
	code, out, errb := runStat(t, td("engine_old.json"), td("engine_regress.json"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb)
	}
	checkGolden(t, "delta_regress.txt.golden", out)
	if !strings.Contains(out, "REGRESSION") {
		t.Error("text output lacks a REGRESSION verdict")
	}
}

func TestGoldenTextClean(t *testing.T) {
	code, out, _ := runStat(t, td("engine_old.json"), td("engine_ok.json"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	checkGolden(t, "delta_clean.txt.golden", out)
}

func TestGoldenCSV(t *testing.T) {
	code, out, _ := runStat(t, "-format", "csv", td("engine_old.json"), td("engine_regress.json"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	checkGolden(t, "delta_regress.csv.golden", out)
}

func TestGoldenJSON(t *testing.T) {
	code, out, _ := runStat(t, "-format", "json", td("engine_old.json"), td("engine_regress.json"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	checkGolden(t, "delta_regress.json.golden", out)
}

// -o writes the table to a file; the gate still decides the exit.
func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.txt")
	code, out, _ := runStat(t, "-o", path, td("engine_old.json"), td("engine_regress.json"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if out != "" {
		t.Errorf("stdout not empty with -o: %q", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "REGRESSION") {
		t.Error("file output lacks the delta table")
	}
}

// Keys present in only one input are reported; under -exact-ops they
// fail the gate.
func TestMissingKeys(t *testing.T) {
	trimmed := filepath.Join(t.TempDir(), "trimmed.json")
	data, err := os.ReadFile(td("engine_ok.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(string(data), `"experiment": "fig10"`, `"experiment": "fig10_renamed"`, 1)
	if err := os.WriteFile(trimmed, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runStat(t, td("engine_old.json"), trimmed)
	if code != 0 {
		t.Fatalf("missing key gated without -exact-ops: exit %d", code)
	}
	if !strings.Contains(out, "only in ") {
		t.Errorf("missing keys not reported:\n%s", out)
	}
	code, _, _ = runStat(t, "-exact-ops", td("engine_old.json"), trimmed)
	if code != 1 {
		t.Errorf("-exact-ops ignored a missing key: exit %d", code)
	}
	// A vanished series also shrinks the alloc gate's coverage, so
	// -exact-allocs alone must fail on it too.
	code, _, _ = runStat(t, "-exact-allocs", td("engine_old.json"), trimmed)
	if code != 1 {
		t.Errorf("-exact-allocs ignored a missing key: exit %d", code)
	}
}

// The vanished-series verdict pinned against committed fixtures:
// engine_trimmed.json is engine_ok.json with the fig10 experiment
// renamed, so under -exact-allocs the baseline's fig10 series counts
// as a mismatch even though no surviving row grew its allocs.
func TestGoldenVanishedSeries(t *testing.T) {
	code, out, errb := runStat(t, "-exact-allocs", td("engine_old.json"), td("engine_trimmed.json"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb)
	}
	checkGolden(t, "delta_vanished.txt.golden", out)
	if !strings.Contains(out, "only in "+td("engine_old.json")+": fig10") {
		t.Errorf("vanished baseline series not reported:\n%s", out)
	}
}

// -exact-allocs gates on allocs/op growth. The contract is
// one-sided: an old series without the measurement is skipped (old
// pre-field reports never fail vacuously), but once the baseline
// measured a series, a new report that stops measuring it fails.
func TestExactAllocs(t *testing.T) {
	mk := func(t *testing.T, name string, allocsPerOp float64) string {
		t.Helper()
		rep := `{
  "format": 2, "scale": 0.1, "repeats": 1, "samples": 2, "host_cpus": 4,
  "records": [
    {"experiment": "fig10", "parallel": 1, "cells": 4, "engine_ops": 200000,
     "wall_seconds": 0.4, "ops_per_sec": 500` + allocsField(allocsPerOp) + `,
     "wall_seconds_samples": [0.4, 0.4], "ops_per_sec_samples": [500, 500]}
  ],
  "overall": []
}`
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(rep), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldMeasured := mk(t, "old.json", 3.0)
	oldUnmeasured := mk(t, "oldu.json", 0)
	same := mk(t, "same.json", 3.0)
	shrunk := mk(t, "shrunk.json", 1.5)
	grown := mk(t, "grown.json", 3.5)

	cases := []struct {
		name     string
		old, new string
		want     int
	}{
		{"same", oldMeasured, same, 0},
		{"shrunk", oldMeasured, shrunk, 0},
		{"grown", oldMeasured, grown, 1},
		{"old-unmeasured-skips", oldUnmeasured, grown, 0},
		{"new-unmeasured-fails", oldMeasured, oldUnmeasured, 1},
		{"flag-off-ignores-growth", oldMeasured, grown, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{"-exact-allocs", c.old, c.new}
			if c.name == "flag-off-ignores-growth" {
				args = args[1:]
			}
			code, out, errb := runStat(t, args...)
			if code != c.want {
				t.Errorf("exit = %d, want %d (stderr: %s)\n%s", code, c.want, errb, out)
			}
			if c.want == 1 && !strings.Contains(out, "ALLOC-GROWTH") {
				t.Errorf("gating output lacks ALLOC-GROWTH verdict:\n%s", out)
			}
		})
	}
}

func allocsField(v float64) string {
	if v == 0 {
		return ""
	}
	return `, "allocs_per_op": ` + strconv.FormatFloat(v, 'g', -1, 64)
}
