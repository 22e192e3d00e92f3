package main

import (
	"math"
	"testing"
)

// TestValidateOptions pins the usage-error surface: every parameter
// the serve.Config clamps would silently repair must be rejected
// loudly here instead (exit 2 in main).
func TestValidateOptions(t *testing.T) {
	good := options{nodes: 4, clients: 16, ops: 1000, memGiB: 2}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr bool
	}{
		{name: "defaults", mutate: func(o *options) {}},
		{name: "zero nodes", mutate: func(o *options) { o.nodes = 0 }, wantErr: true},
		{name: "negative nodes", mutate: func(o *options) { o.nodes = -2 }, wantErr: true},
		{name: "zero clients", mutate: func(o *options) { o.clients = 0 }, wantErr: true},
		{name: "zero ops", mutate: func(o *options) { o.ops = 0 }, wantErr: true},
		{name: "negative ops", mutate: func(o *options) { o.ops = -5 }, wantErr: true},
		{name: "zero mem", mutate: func(o *options) { o.memGiB = 0 }, wantErr: true},
		{name: "NaN mem", mutate: func(o *options) { o.memGiB = math.NaN() }, wantErr: true},
		{name: "infinite mem", mutate: func(o *options) { o.memGiB = math.Inf(1) }, wantErr: true},
		{name: "negative highwater", mutate: func(o *options) { o.highwater = -1 }, wantErr: true},
		{name: "highwater past int32", mutate: func(o *options) { o.highwater = math.MaxInt32 + 1 }, wantErr: true},
		{name: "highwater at int32 max", mutate: func(o *options) { o.highwater = math.MaxInt32 }},
		{name: "explicit tuning accepted", mutate: func(o *options) { o.highwater = 24 }},
	}
	for _, c := range cases {
		o := good
		c.mutate(&o)
		err := validate(o)
		if c.wantErr && err == nil {
			t.Errorf("%s: accepted, want error", c.name)
		}
		if !c.wantErr && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
