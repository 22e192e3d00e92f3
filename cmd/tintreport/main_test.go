package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		scale, mem float64
		repeats    int
		want       string // "" = accepted
	}{
		{1, 2, 1, ""},
		{0.05, 0.5, 3, ""},
		{0, 2, 1, "-scale"},
		{-1, 2, 1, "-scale"},
		{math.NaN(), 2, 1, "-scale"},
		{math.Inf(1), 2, 1, "-scale"},
		{1, 0, 1, "-mem"},
		{1, -1, 1, "-mem"},
		{1, math.NaN(), 1, "-mem"},
		{1, math.Inf(1), 1, "-mem"},
		{1, 2, 0, "-repeats"},
		{1, 2, -2, "-repeats"},
	} {
		err := checkFlags(tc.scale, tc.mem, tc.repeats)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("scale %v mem %v repeats %d rejected: %v", tc.scale, tc.mem, tc.repeats, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+":")):
			t.Errorf("scale %v mem %v repeats %d: error %v, want one naming %s",
				tc.scale, tc.mem, tc.repeats, err, tc.want)
		}
	}
}

// Bad flags exit 2 before anything boots, which keeps them apart from
// exit 1, a failed claim.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-0.5"},
		{"-scale", "NaN"},
		{"-mem", "-1"},
		{"-mem", "+Inf"},
		{"-repeats", "-2"},
		{"-repeats", "0"},
		{"-nosuchflag"},
		{"-scale", "x"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a report: %q", args, out.String())
		}
	}
}
