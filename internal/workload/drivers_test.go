package workload

import (
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/policy"
)

func TestFromSpecBuiltins(t *testing.T) {
	// A builtin resolves with no knobs and takes the instance name.
	w, err := FromSpec("my-lbm", "lbm", DriverSpec{})
	if err != nil || w.Name != "my-lbm" {
		t.Fatalf("FromSpec(my-lbm, lbm) = %v, %v", w.Name, err)
	}
	// Empty name defaults to the driver name.
	w, err = FromSpec("", "garbage", DriverSpec{})
	if err != nil || w.Name != "garbage" {
		t.Fatalf("FromSpec(\"\", garbage) = %v, %v", w.Name, err)
	}
	// Unknown driver.
	if _, err := FromSpec("x", "nope", DriverSpec{}); err == nil {
		t.Error("FromSpec accepted unknown driver")
	}
}

// Builtins are pinned shapes: any knob must be rejected, naming the
// offending knob.
func TestFromSpecRejectsKnobsOnBuiltins(t *testing.T) {
	cases := []struct {
		spec DriverSpec
		knob string
	}{
		{DriverSpec{Footprint: 1 << 20}, "footprint"},
		{DriverSpec{Ops: 100}, "ops"},
		{DriverSpec{Depth: 3}, "depth"},
	}
	for _, c := range cases {
		_, err := FromSpec("x", "lbm", c.spec)
		if err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("FromSpec(lbm, %+v) err = %v, want mention of %q", c.spec, err, c.knob)
		}
	}
}

// Each generic driver rejects knobs outside its set.
func TestFromSpecKnobApplicability(t *testing.T) {
	cases := []struct {
		driver string
		spec   DriverSpec
		knob   string
	}{
		{"garbage", DriverSpec{Depth: 2}, "depth"},
		{"garbage", DriverSpec{Ticks: 2}, "ticks"},
		{"gc_latency", DriverSpec{Block: 64}, "block"},
		{"gc_latency", DriverSpec{ReadPct: 10}, "read_pct"},
		{"http", DriverSpec{Block: 64}, "block"},
		{"http", DriverSpec{Ticks: 1}, "ticks"},
		{"json", DriverSpec{ReadPct: 10}, "read_pct"},
		{"json", DriverSpec{Block: 64}, "block"},
	}
	for _, c := range cases {
		_, err := FromSpec("x", c.driver, c.spec)
		if err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("FromSpec(%s, %+v) err = %v, want mention of %q", c.driver, c.spec, err, c.knob)
		}
	}
	if _, err := FromSpec("x", "http", DriverSpec{ReadPct: 101}); err == nil {
		t.Error("FromSpec accepted read_pct > 100")
	}
}

// Knobs must actually steer the shape: a bigger footprint or op count
// must change the simulated runtime.
func TestDriverKnobsChangeShape(t *testing.T) {
	run := func(w Workload) uint64 {
		r := newRig(t, fourCores(), policy.MEMLLC)
		phases, err := w.Build(r.e.Threads(), testParams)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.e.Run(phases)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runtime == 0 {
			t.Fatalf("%s: zero runtime", w.Name)
		}
		return uint64(res.Runtime)
	}
	for _, c := range []struct {
		driver     string
		base, more DriverSpec
	}{
		{"garbage", DriverSpec{Ops: 500}, DriverSpec{Ops: 2000}},
		{"gc_latency", DriverSpec{Ticks: 2, Ops: 200}, DriverSpec{Ticks: 5, Ops: 200}},
		{"http", DriverSpec{Ops: 200}, DriverSpec{Ops: 200, Depth: 24}},
		{"json", DriverSpec{Ops: 8}, DriverSpec{Ops: 8, Depth: 8}},
	} {
		small, err := FromSpec("", c.driver, c.base)
		if err != nil {
			t.Fatal(err)
		}
		big, err := FromSpec("", c.driver, c.more)
		if err != nil {
			t.Fatal(err)
		}
		a, b := run(small), run(big)
		if b <= a {
			t.Errorf("%s: knobs did not grow the run: %d -> %d (specs %+v -> %+v)",
				c.driver, a, b, c.base, c.more)
		}
	}
}

// The churn drivers must exercise the allocator in steady state, not
// just during init: live allocations at the end stay bounded while
// the op stream runs.
func TestGarbageChurnsAllocator(t *testing.T) {
	r := newRig(t, fourCores(), policy.MEMLLC)
	w, err := FromSpec("", "garbage", DriverSpec{Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	phases, err := w.Build(r.e.Threads(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	for i, th := range r.e.Threads() {
		st := th.Heap.Stats()
		if st.Frees == 0 {
			t.Errorf("thread %d: no frees — churn phase did not run", i)
		}
		if st.Mallocs <= st.Frees {
			t.Errorf("thread %d: mallocs %d <= frees %d", i, st.Mallocs, st.Frees)
		}
	}
}

func TestDriversListed(t *testing.T) {
	names := map[string]bool{}
	for _, d := range Drivers() {
		names[d] = true
	}
	for _, want := range []string{"synthetic", "lbm", "garbage", "gc_latency", "http", "json"} {
		if !names[want] {
			t.Errorf("Drivers() missing %q", want)
		}
	}
}
