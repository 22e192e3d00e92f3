package suite

import (
	"reflect"
	"strings"
	"testing"
)

const sampleTOML = `
# comment
[[suite]]
name = "demo"
description = "a demo # not a comment"
configs = ["16_threads_4_nodes", "4_threads_1_nodes"]
policies = ["buddy", "MEM+LLC"]
repeats = 2
scale = 0.25
seed = 42

[[suite.workload]]
driver = "lbm"

[[suite.workload]]
name = "big-garbage"
driver = "garbage"
footprint = 4194304
ops = 10000
`

func TestParseTOML(t *testing.T) {
	reg, err := Parse([]byte(sampleTOML))
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Suites) != 1 {
		t.Fatalf("suites = %d, want 1", len(reg.Suites))
	}
	s := reg.Suites[0]
	if s.Name != "demo" || s.Repeats != 2 || s.Scale != 0.25 || s.Seed != 42 {
		t.Errorf("scalar fields wrong: %+v", s)
	}
	if s.Description != "a demo # not a comment" {
		t.Errorf("comment stripping broke a quoted #: %q", s.Description)
	}
	want := []string{"16_threads_4_nodes", "4_threads_1_nodes"}
	if !reflect.DeepEqual(s.Configs, want) {
		t.Errorf("configs = %v, want %v", s.Configs, want)
	}
	if len(s.Workloads) != 2 {
		t.Fatalf("workloads = %d, want 2", len(s.Workloads))
	}
	w := s.Workloads[1]
	if w.Name != "big-garbage" || w.Driver != "garbage" || w.Footprint != 4194304 || w.Ops != 10000 {
		t.Errorf("workload knobs wrong: %+v", w)
	}
	if got := w.InstanceName(); got != "big-garbage" {
		t.Errorf("InstanceName = %q", got)
	}
	if got := s.Workloads[0].InstanceName(); got != "lbm" {
		t.Errorf("InstanceName (default) = %q", got)
	}
}

// Syntax errors carry a positional prefix; validation errors carry
// the addressed "suite: <name>: <field>:" prefix.
func TestParseErrors(t *testing.T) {
	syntax := []string{
		"nonsense\n",
		"[table]\n",
		"[[nope]]\n",
		"[[suite.workload]]\n", // outside a [[suite]]
		"key = 1\n",            // outside a [[suite]]
		"[[suite]]\nname = unquoted\n",
		"[[suite]]\ntypo_key = 1\n",
		"[[suite]]\nrepeats = \"3\"\n",
		"[[suite]]\nscale = nan\n",
		"[[suite]]\nconfigs = \"not-an-array\"\n",
		"[[suite]]\n[[suite.workload]]\nbogus = 1\n",
		"[[suite]]\nname = \"x\n",                 // unterminated string
		"[[suite]]\nname = \"x\"\nname = \"y\"\n", // duplicate key in one table
		"[[suite]]\n[[suite.workload]]\ndriver = \"lbm\"\ndriver = \"lbm\"\n",
		"{\"suites\": []}\n", // the registry is TOML only
	}
	for _, src := range syntax {
		_, err := Parse([]byte(src))
		if err == nil {
			t.Errorf("Parse(%q) accepted", src)
			continue
		}
		if !strings.HasPrefix(err.Error(), "suite: line ") {
			t.Errorf("Parse(%q) error %q lacks positional prefix", src, err)
		}
	}

	validation := []struct {
		src   string
		field string
	}{
		{"[[suite]]\n", "(unnamed): name:"},
		{"[[suite]]\nname = \"has space\"\n", "has space: name:"},
		{"[[suite]]\nname = \"x\"\n", "x: workloads:"},
		{"[[suite]]\nname = \"x\"\n[[suite.workload]]\ndriver = \"nope\"\n", "x: workload:"},
		{"[[suite]]\nname = \"x\"\n[[suite.workload]]\ndriver = \"lbm\"\nops = 5\n", "x: workload:"},
		{"[[suite]]\nname = \"x\"\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: configs:"},
		{"[[suite]]\nname = \"x\"\nconfigs = [\"bogus_config\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: configs:"},
		{"[[suite]]\nname = \"x\"\nconfigs = [\"4_threads_1_nodes\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: policies:"},
		{"[[suite]]\nname = \"x\"\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"bogus\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: policies:"},
		{"[[suite]]\nname = \"x\"\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\", \"buddy\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: policies:"},
		{"[[suite]]\nname = \"x\"\nrepeats = -1\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: repeats:"},
		{"[[suite]]\nname = \"x\"\nscale = -0.5\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: scale:"},
		{"[[suite]]\nname = \"x\"\n[[suite.workload]]\ndriver = \"lbm\"\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: workload:"},
		{"[[suite]]\nname = \"x\"\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\"]\n[[suite.workload]]\ndriver = \"lbm\"\n[[suite]]\nname = \"x\"\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\"]\n[[suite.workload]]\ndriver = \"lbm\"\n", "x: name: duplicate"},
	}
	for _, c := range validation {
		_, err := Parse([]byte(c.src))
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.src)
			continue
		}
		if !strings.HasPrefix(err.Error(), "suite: "+c.field) {
			t.Errorf("Parse(%q) error = %q, want prefix %q", c.src, err, "suite: "+c.field)
		}
	}
}

// Reassigning a key within one table is a hard positional error —
// last-wins would silently discard the first value. The same key in
// a different table (or a later [[suite]]) is of course fine.
func TestDuplicateKeys(t *testing.T) {
	_, err := Parse([]byte("[[suite]]\nname = \"x\"\nrepeats = 1\nname = \"y\"\n"))
	if err == nil {
		t.Fatal("duplicate suite key accepted")
	}
	want := `suite: line 4: duplicate key "name" in this table (first set at line 2)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}

	_, err = Parse([]byte("[[suite]]\nname = \"x\"\n[[suite.workload]]\ndriver = \"lbm\"\nops = 1\nops = 2\n"))
	if err == nil {
		t.Fatal("duplicate workload key accepted")
	}
	want = `suite: line 6: duplicate key "ops" in this table (first set at line 5)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}

	// A fresh table resets the tracking: the same key may appear once
	// in the suite, once in each of its workloads, and again in the
	// next suite.
	ok := "[[suite]]\nname = \"a\"\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\"]\n" +
		"[[suite.workload]]\nname = \"w1\"\ndriver = \"lbm\"\n" +
		"[[suite.workload]]\nname = \"w2\"\ndriver = \"lbm\"\n" +
		"[[suite]]\nname = \"b\"\nconfigs = [\"4_threads_1_nodes\"]\npolicies = [\"buddy\"]\n" +
		"[[suite.workload]]\ndriver = \"lbm\"\n"
	if _, err := Parse([]byte(ok)); err != nil {
		t.Errorf("repeated keys across distinct tables rejected: %v", err)
	}
}

func TestDefaultRegistry(t *testing.T) {
	reg := Default()
	want := []string{"fig10", "paper", "perthread-lbm", "detail-lbm", "ported", "smoke"}
	if got := reg.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("default names = %v, want %v", got, want)
	}
	// Every entry must resolve and validate (Parse already validated;
	// spot-check lookup and the smoke entry's shape).
	s, err := reg.ByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if s.Repeats != 3 || s.Scale != 0.05 || s.Seed != 1 || len(s.Workloads) != 3 {
		t.Errorf("smoke entry changed shape: %+v", s)
	}
	if _, err := reg.ByName("no-such-suite"); err == nil {
		t.Error("ByName accepted an unknown suite")
	}
}

func TestRoundTrip(t *testing.T) {
	reg := Default()
	// load -> marshal -> load must be DeepEqual.
	again, err := Parse(reg.MarshalTOML())
	if err != nil {
		t.Fatalf("re-parse of MarshalTOML: %v", err)
	}
	if !reflect.DeepEqual(reg, again) {
		t.Errorf("TOML round-trip diverged:\n%+v\n%+v", reg, again)
	}
}

func TestMerge(t *testing.T) {
	base := &Registry{Suites: []Suite{{Name: "a", Scale: 1}, {Name: "b"}}}
	over := &Registry{Suites: []Suite{{Name: "b", Scale: 9}, {Name: "c"}}}
	got := base.Merge(over)
	if !reflect.DeepEqual(got.Names(), []string{"a", "b", "c"}) {
		t.Fatalf("merged names = %v", got.Names())
	}
	if got.Suites[1].Scale != 9 {
		t.Errorf("override did not replace: %+v", got.Suites[1])
	}
	// Inputs untouched.
	if base.Suites[1].Scale != 0 || len(base.Suites) != 2 || len(over.Suites) != 2 {
		t.Error("Merge modified an input")
	}
}

func TestEffective(t *testing.T) {
	base := defaultBase()
	s := Suite{Repeats: 5, Scale: 0.5, Seed: 7}
	p, r := s.Effective(base, 3)
	if p.Scale != 0.5 || p.Seed != 7 || r != 5 {
		t.Errorf("Effective override = %+v, %d", p, r)
	}
	p, r = Suite{}.Effective(base, 3)
	if p != base || r != 3 {
		t.Errorf("Effective defaults = %+v, %d", p, r)
	}
}
