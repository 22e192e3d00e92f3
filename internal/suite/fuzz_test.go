package suite

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzSuiteRegistry drives arbitrary bytes through the loader:
//
//  1. Parse never panics.
//  2. Every error wears the package prefix — positional
//     ("suite: line N:") or addressed ("suite: <name>: <field>:") —
//     so a malformed config always fails loudly and addressably.
//  3. Anything that loads round-trips: load -> marshal -> load is
//     DeepEqual.
//
// The registry is TOML only: the JSON seeds must fail with the
// prefix.
func FuzzSuiteRegistry(f *testing.F) {
	f.Add([]byte(sampleTOML))
	f.Add(defaultTOML)
	f.Add([]byte(`{"suites":[{"name":"j","workloads":[{"driver":"lbm"}],"configs":["4_threads_1_nodes"],"policies":["buddy"]}]}`))
	f.Add([]byte("[[suite]]\nname = \"x\"\n"))
	f.Add([]byte("[[suite]]\nscale = 1e308\nseed = -1\n"))
	f.Add([]byte("key = \"value\"\n[[suite.workload]]\n"))
	f.Add([]byte("[[suite]]\nname = \"a#b\" # comment\npolicies = [\"buddy\",]\n"))
	f.Add([]byte("{\"suites\": null}"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := Parse(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "suite: ") {
				t.Fatalf("error without package prefix: %q", err)
			}
			return
		}
		again, err := Parse(reg.MarshalTOML())
		if err != nil {
			t.Fatalf("TOML round-trip re-parse failed: %v\noriginal input: %q\nmarshalled: %q",
				err, data, reg.MarshalTOML())
		}
		if !reflect.DeepEqual(reg, again) {
			t.Fatalf("TOML round-trip diverged for input %q", data)
		}
	})
}
