package suite

import (
	"bytes"
	"fmt"
	"strconv"
)

// MarshalTOML renders the registry in the TOML subset parseTOML
// accepts, for the round-trip tests. Zero-valued fields are omitted,
// so load → marshal → load is DeepEqual-stable.
func (r *Registry) MarshalTOML() []byte {
	var b bytes.Buffer
	for i := range r.Suites {
		if i > 0 {
			b.WriteByte('\n')
		}
		r.Suites[i].marshalTOML(&b)
	}
	return b.Bytes()
}

func (s *Suite) marshalTOML(b *bytes.Buffer) {
	// Suite-level keys must precede the first [[suite.workload]]
	// header: after the header every key belongs to that workload.
	b.WriteString("[[suite]]\n")
	tomlStr(b, "name", s.Name)
	tomlStr(b, "description", s.Description)
	tomlStrs(b, "configs", s.Configs)
	tomlStrs(b, "policies", s.Policies)
	tomlInt(b, "repeats", int64(s.Repeats))
	if s.Scale != 0 {
		fmt.Fprintf(b, "scale = %s\n", strconv.FormatFloat(s.Scale, 'g', -1, 64))
	}
	tomlInt(b, "seed", s.Seed)
	for i := range s.Workloads {
		w := &s.Workloads[i]
		b.WriteString("\n[[suite.workload]]\n")
		tomlStr(b, "name", w.Name)
		tomlStr(b, "driver", w.Driver)
		tomlUint(b, "footprint", w.Footprint)
		tomlUint(b, "block", w.Block)
		tomlUint(b, "ops", w.Ops)
		tomlInt(b, "ticks", int64(w.Ticks))
		tomlInt(b, "depth", int64(w.Depth))
		tomlInt(b, "read_pct", int64(w.ReadPct))
	}
}

func tomlStr(b *bytes.Buffer, key, v string) {
	if v != "" {
		fmt.Fprintf(b, "%s = %s\n", key, strconv.Quote(v))
	}
}

func tomlStrs(b *bytes.Buffer, key string, vs []string) {
	if len(vs) == 0 {
		return
	}
	fmt.Fprintf(b, "%s = [", key)
	for i, v := range vs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Quote(v))
	}
	b.WriteString("]\n")
}

func tomlInt(b *bytes.Buffer, key string, v int64) {
	if v != 0 {
		fmt.Fprintf(b, "%s = %d\n", key, v)
	}
}

func tomlUint(b *bytes.Buffer, key string, v uint64) {
	if v != 0 {
		fmt.Fprintf(b, "%s = %d\n", key, v)
	}
}
