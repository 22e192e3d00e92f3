// Package suite is the declarative workload-suite registry: TOML
// descriptions of benchmark suites — which workloads (builtin or
// parameterized driver instances), which thread-pinning
// configurations, which coloring policies, how many repeats, at what
// scale — loaded and validated at startup, so adding a scenario is a
// config edit rather than new Go code (mirroring
// golang.org/x/benchmarks/cmd/bent's suites.toml).
//
// Run is the only code that turns a workload × config × policy matrix
// into cells. The embedded default registry (default.toml) defines
// the paper's evaluation matrices: tintbench's Fig. 10–14 and detail
// experiments run its fig10, paper, perthread-lbm and detail-lbm
// entries, and the golden files under internal/bench/testdata pin
// what they produce.
package suite

import (
	"fmt"
	"math"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// WorkloadSpec names one workload instance of a suite: a driver plus
// its knobs (see workload.DriverSpec for the per-driver knob
// meanings; zero means driver default, and drivers reject knobs they
// do not interpret).
type WorkloadSpec struct {
	// Name is the instance name; empty defaults to the driver name.
	Name      string
	Driver    string
	Footprint uint64
	Block     uint64
	Ops       uint64
	Ticks     int
	Depth     int
	ReadPct   int
}

// InstanceName returns the effective workload name.
func (w WorkloadSpec) InstanceName() string {
	if w.Name != "" {
		return w.Name
	}
	return w.Driver
}

// driverSpec maps the registry knobs onto the workload package's
// knob struct.
func (w WorkloadSpec) driverSpec() workload.DriverSpec {
	return workload.DriverSpec{
		Footprint: w.Footprint,
		Block:     w.Block,
		Ops:       w.Ops,
		Ticks:     w.Ticks,
		Depth:     w.Depth,
		ReadPct:   w.ReadPct,
	}
}

// Resolve builds the workload instance this spec describes.
func (w WorkloadSpec) Resolve() (workload.Workload, error) {
	return workload.FromSpec(w.Name, w.Driver, w.driverSpec())
}

// Suite is one registry entry: a named workload × config × policy
// matrix with its run parameters.
type Suite struct {
	Name        string
	Description string
	Workloads   []WorkloadSpec
	// Configs are thread-pinning configuration names
	// (bench.Configurations).
	Configs []string
	// Policies are coloring-policy names (policy.ParsePolicy).
	Policies []string
	// Repeats per cell; 0 defers to the runner (tintbench -repeats).
	Repeats int
	// Scale multiplies working sets; 0 defers to the runner.
	Scale float64
	// Seed is the base random seed; 0 defers to the runner.
	Seed int64
}

// Registry is a loaded suite file.
type Registry struct {
	Suites []Suite
}

// ByName finds a suite.
func (r *Registry) ByName(name string) (Suite, error) {
	for _, s := range r.Suites {
		if s.Name == name {
			return s, nil
		}
	}
	return Suite{}, fmt.Errorf("suite: unknown suite %q (have %v)", name, r.Names())
}

// Names lists the registry's suite names in file order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.Suites))
	for i, s := range r.Suites {
		out[i] = s.Name
	}
	return out
}

// Merge returns a registry with entries of other laid over r: same
// names replace (keeping r's position), new names append in other's
// order. Neither input is modified. This is how a user file composes
// with the embedded defaults: overriding a default suite is writing
// an entry with its name.
func (r *Registry) Merge(other *Registry) *Registry {
	out := &Registry{Suites: append([]Suite(nil), r.Suites...)}
	for _, s := range other.Suites {
		replaced := false
		for i := range out.Suites {
			if out.Suites[i].Name == s.Name {
				out.Suites[i] = s
				replaced = true
				break
			}
		}
		if !replaced {
			out.Suites = append(out.Suites, s)
		}
	}
	return out
}

// fieldErr builds the package's validation-error shape:
// "suite: <name>: <field>: <problem>".
func fieldErr(suiteName, field, format string, args ...any) error {
	if suiteName == "" {
		suiteName = "(unnamed)"
	}
	return fmt.Errorf("suite: %s: %s: %s", suiteName, field, fmt.Sprintf(format, args...))
}

// validName reports whether a suite or workload-instance name is
// CLI- and file-safe.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.', c == '+':
		default:
			return false
		}
	}
	return true
}

// Validate checks the whole registry. Every reported problem carries
// the "suite: <name>: <field>:" prefix so a malformed config fails
// loudly and addressably.
func (r *Registry) Validate() error {
	seen := map[string]bool{}
	for i := range r.Suites {
		s := &r.Suites[i]
		if s.Name == "" {
			return fieldErr("", "name", "required (entry %d)", i+1)
		}
		if !validName(s.Name) {
			return fieldErr(s.Name, "name", "must match [A-Za-z0-9_.+-]+")
		}
		if seen[s.Name] {
			return fieldErr(s.Name, "name", "duplicate suite name")
		}
		seen[s.Name] = true
		if err := s.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Suite) validate() error {
	if len(s.Workloads) == 0 {
		return fieldErr(s.Name, "workloads", "at least one workload required")
	}
	wseen := map[string]bool{}
	for _, w := range s.Workloads {
		inst := w.InstanceName()
		if w.Driver == "" {
			return fieldErr(s.Name, "workload", "driver required (instance %q)", inst)
		}
		if !validName(inst) {
			return fieldErr(s.Name, "workload", "instance name %q must match [A-Za-z0-9_.+-]+", inst)
		}
		if wseen[inst] {
			return fieldErr(s.Name, "workload", "duplicate instance name %q", inst)
		}
		wseen[inst] = true
		if _, err := w.Resolve(); err != nil {
			return fieldErr(s.Name, "workload", "%q: %v", inst, err)
		}
	}
	if len(s.Configs) == 0 {
		return fieldErr(s.Name, "configs", "at least one configuration required")
	}
	// Configuration names are topology-independent constants; the
	// paper topology is the canonical namespace.
	topo := topology.Opteron6128()
	cseen := map[string]bool{}
	for _, c := range s.Configs {
		if _, err := bench.ConfigByName(topo, c); err != nil {
			return fieldErr(s.Name, "configs", "%v", err)
		}
		if cseen[c] {
			return fieldErr(s.Name, "configs", "duplicate configuration %q", c)
		}
		cseen[c] = true
	}
	if len(s.Policies) == 0 {
		return fieldErr(s.Name, "policies", "at least one policy required")
	}
	pseen := map[string]bool{}
	for _, p := range s.Policies {
		if _, err := policy.ParsePolicy(p); err != nil {
			return fieldErr(s.Name, "policies", "%v", err)
		}
		if pseen[p] {
			return fieldErr(s.Name, "policies", "duplicate policy %q", p)
		}
		pseen[p] = true
	}
	if s.Repeats < 0 {
		return fieldErr(s.Name, "repeats", "must be >= 0, have %d", s.Repeats)
	}
	if s.Scale < 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
		return fieldErr(s.Name, "scale", "must be a finite value >= 0, have %v", s.Scale)
	}
	return nil
}
