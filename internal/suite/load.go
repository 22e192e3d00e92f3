package suite

import (
	_ "embed"
	"fmt"
	"os"
)

// defaultTOML is the embedded registry: the paper's evaluation
// matrices plus the ported shapes and the CI smoke suite.
//
//go:embed default.toml
var defaultTOML []byte

// Parse decodes a registry from TOML and validates it. Errors carry
// either a positional "suite: line N:" prefix (syntax) or the
// addressed "suite: <name>: <field>:" prefix (validation).
func Parse(data []byte) (*Registry, error) {
	reg, err := parseTOML(data)
	if err != nil {
		return nil, err
	}
	if err := reg.Validate(); err != nil {
		return nil, err
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
