package main

import (
	"math"
	"testing"
)

func TestParseListen(t *testing.T) {
	cases := []struct {
		spec          string
		network, addr string
		wantErr       bool
	}{
		{spec: "unix:tintserved.sock", network: "unix", addr: "tintserved.sock"},
		{spec: "unix:/tmp/t.sock", network: "unix", addr: "/tmp/t.sock"},
		{spec: "tcp:127.0.0.1:7177", network: "tcp", addr: "127.0.0.1:7177"},
		{spec: "tcp::7177", network: "tcp", addr: ":7177"},
		{spec: "nosep", wantErr: true},
		{spec: "udp:1.2.3.4:5", wantErr: true},
		{spec: "unix:", wantErr: true},
		{spec: "", wantErr: true},
	}
	for _, c := range cases {
		network, addr, err := parseListen(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseListen(%q): accepted, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseListen(%q): %v", c.spec, err)
			continue
		}
		if network != c.network || addr != c.addr {
			t.Errorf("parseListen(%q) = %q,%q want %q,%q", c.spec, network, addr, c.network, c.addr)
		}
	}
}

func TestValidateOptions(t *testing.T) {
	good := options{listen: "unix:t.sock", memGiB: 2}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr bool
	}{
		{name: "defaults", mutate: func(o *options) {}},
		{name: "zero mem", mutate: func(o *options) { o.memGiB = 0 }, wantErr: true},
		{name: "negative mem", mutate: func(o *options) { o.memGiB = -1 }, wantErr: true},
		{name: "NaN mem", mutate: func(o *options) { o.memGiB = math.NaN() }, wantErr: true},
		{name: "infinite mem", mutate: func(o *options) { o.memGiB = math.Inf(1) }, wantErr: true},
		{name: "negative highwater", mutate: func(o *options) { o.highwater = -1 }, wantErr: true},
		{name: "highwater past int32", mutate: func(o *options) { o.highwater = math.MaxInt32 + 1 }, wantErr: true},
		{name: "highwater at int32 max", mutate: func(o *options) { o.highwater = math.MaxInt32 }},
		{name: "explicit tuning accepted", mutate: func(o *options) { o.highwater = 48 }},
		{name: "bad listen", mutate: func(o *options) { o.listen = "carrier-pigeon" }, wantErr: true},
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
