package main

import "testing"

// TestCheckFlags pins the usage-error surface: an -exp or -format
// value main does not run must fail before any experiment starts,
// rather than print nothing and exit 0. "offload" names an
// experiment that was removed.
func TestCheckFlags(t *testing.T) {
	for _, exp := range experiments {
		if err := checkFlags(exp, "table"); err != nil {
			t.Errorf("-exp %s: %v", exp, err)
		}
	}
	for _, c := range []struct{ exp, format string }{
		{"nosuchexp", "table"},
		{"offload", "table"},
		{"", "table"},
		{"all", "xml"},
	} {
		if err := checkFlags(c.exp, c.format); err == nil {
			t.Errorf("-exp %q -format %q accepted", c.exp, c.format)
		}
	}
}
