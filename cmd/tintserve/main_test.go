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
		{name: "negative queue", mutate: func(o *options) { o.queue = -1 }, wantErr: true},
		{name: "negative highwater", mutate: func(o *options) { o.highwater = -1 }, wantErr: true},
		{name: "negative batch", mutate: func(o *options) { o.batch = -1 }, wantErr: true},
		{name: "negative stripes", mutate: func(o *options) { o.stripes = -1 }, wantErr: true},
		{name: "highwater over explicit queue", mutate: func(o *options) { o.queue = 64; o.highwater = 65 }, wantErr: true},
		{name: "highwater over default queue", mutate: func(o *options) { o.highwater = 257 }, wantErr: true},
		{name: "highwater at explicit queue", mutate: func(o *options) { o.queue = 64; o.highwater = 64 }},
		{name: "highwater at default queue", mutate: func(o *options) { o.highwater = 256 }},
		{name: "explicit tuning accepted", mutate: func(o *options) { o.queue = 32; o.highwater = 24; o.batch = 8; o.stripes = 4 }},
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
