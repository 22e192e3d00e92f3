package suite

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// defaultTOML is the embedded registry: the paper's evaluation
// matrices plus the ported shapes and the CI smoke suite.
//
//go:embed default.toml
var defaultTOML []byte

// Parse decodes a registry from TOML (default) or JSON (first
// non-space byte '{') and validates it. Errors carry either a
// positional "suite: line N:" prefix (syntax) or the addressed
// "suite: <name>: <field>:" prefix (validation).
func Parse(data []byte) (*Registry, error) {
	var (
		reg *Registry
		err error
	)
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		reg, err = parseJSON(trimmed)
	} else {
		reg, err = parseTOML(data)
	}
	if err != nil {
		return nil, err
	}
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	return reg, nil
}

func parseJSON(data []byte) (*Registry, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	reg := &Registry{}
	if err := dec.Decode(reg); err != nil {
		return nil, fmt.Errorf("suite: json: %w", err)
	}
	// Normalize empty to nil so the JSON and TOML forms of the same
	// registry are DeepEqual (round-trip property).
	if len(reg.Suites) == 0 {
		reg.Suites = nil
	}
	return reg, nil
}

// LoadFile parses and validates a registry file.
func LoadFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	reg, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reg, nil
}

// Default returns the embedded registry. The embedded file is part of
// the build, so a failure to parse is a build defect: it panics
// rather than forcing every caller to thread an impossible error.
// (The package tests parse and validate it the fallible way.)
func Default() *Registry {
	reg, err := Parse(defaultTOML)
	if err != nil {
		panic(fmt.Sprintf("suite: embedded default.toml invalid: %v", err))
	}
	return reg
}

// Load composes the registry tintbench runs against: the embedded
// defaults with the suites of path (if non-empty) merged over them.
func Load(path string) (*Registry, error) {
	reg := Default()
	if path == "" {
		return reg, nil
	}
	user, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	merged := reg.Merge(user)
	// Merging validated registries cannot produce duplicate names,
	// but re-validate anyway: it is cheap and keeps the invariant
	// local.
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	return merged, nil
}
