// Command tintserved is the standalone allocation daemon: it owns the
// simulated platform (topology + separable physical memory) and the
// sharded serving front-end, and exposes both over a length-prefixed
// binary frame protocol (internal/wire). Clients — the wire.Client
// library, tintbench's netserve experiment, or the test hammer — dial
// in, declare their core and color plan with a Hello, and then
// allocate, free, spawn scheduler tasks, and read stats remotely.
//
// A unix socket is the default transport; TCP is opt-in:
//
//	tintserved                             # unix:tintserved.sock
//	tintserved -listen unix:/tmp/tint.sock
//	tintserved -listen tcp:127.0.0.1:7177
//	tintserved -mem 4 -highwater 48
//
// SIGINT/SIGTERM shut the daemon down cleanly: listeners close, live
// sessions are dropped and their frames reclaimed, and the cross-shard
// invariant audit runs before the process exits. Exit status is 0 on a
// clean audited shutdown, 1 on a runtime or audit failure, 2 on a
// usage error.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/wire"
)

type options struct {
	listen    string
	memGiB    float64
	highwater int
}

// parseListen splits a -listen spec into (network, address). Only
// unix and tcp are accepted; everything else is a usage error.
func parseListen(spec string) (network, addr string, err error) {
	i := strings.Index(spec, ":")
	if i < 0 {
		return "", "", fmt.Errorf("listen spec %q: want unix:PATH or tcp:HOST:PORT", spec)
	}
	network, addr = spec[:i], spec[i+1:]
	if network != "unix" && network != "tcp" {
		return "", "", fmt.Errorf("listen network %q: want unix or tcp", network)
	}
	if addr == "" {
		return "", "", fmt.Errorf("listen spec %q: empty address", spec)
	}
	return network, addr, nil
}

// validate rejects option combinations the daemon cannot serve. It
// mirrors the serve.Config clamps: anything the config layer would
// silently "fix" is rejected loudly here instead, because a daemon
// that starts with different limits than the operator asked for is a
// misconfiguration, not a convenience.
func validate(o options) error {
	if !(o.memGiB > 0) || math.IsInf(o.memGiB, 0) {
		return fmt.Errorf("-mem %g: installed memory must be finite and positive", o.memGiB)
	}
	if o.highwater < 0 {
		return fmt.Errorf("-highwater %d: must not be negative", o.highwater)
	}
	if o.highwater > math.MaxInt32 {
		return fmt.Errorf("-highwater %d exceeds %d", o.highwater, math.MaxInt32)
	}
	if _, _, err := parseListen(o.listen); err != nil {
		return err
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "unix:tintserved.sock", "transport spec: unix:PATH or tcp:HOST:PORT")
	flag.Float64Var(&o.memGiB, "mem", 2, "installed physical memory in GiB")
	flag.IntVar(&o.highwater, "highwater", 0, "concurrent refill misses per shard before ErrBusy (0 = default 192)")
	flag.Parse()

	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "tintserved:", err)
		flag.Usage()
		os.Exit(2)
	}
	network, addr, _ := parseListen(o.listen)

	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(uint64(o.memGiB*(1<<30)), topo.Nodes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tintserved:", err)
		os.Exit(1)
	}
	d, err := wire.NewDaemon(topo, m, serve.Config{HighWater: o.highwater})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tintserved:", err)
		os.Exit(1)
	}

	l, err := net.Listen(network, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tintserved:", err)
		os.Exit(1)
	}
	if network == "unix" {
		// A daemon killed hard leaves its socket file behind; remove
		// ours on the clean path so restarts don't need -f cleanups.
		defer os.Remove(addr)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "tintserved: %v, shutting down\n", s)
		if err := d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tintserved: shutdown:", err)
		}
	}()

	fmt.Printf("tintserved: %d nodes, %.1f GiB, listening on %s:%s\n",
		topo.Nodes(), o.memGiB, network, addr)
	serveErr := d.Serve(l)
	// Serve returns nil on a signalled shutdown; Close is idempotent
	// and hands back the cached shutdown/audit error either way.
	closeErr := d.Close()

	st := d.Server().Stats()
	ds := d.Stats()
	fmt.Printf("sessions %d (reclaimed %d frames, %d failed), tasks %d spawned / %d runs\n",
		ds.Sessions, ds.Reclaimed, ds.ReclaimFailed, ds.TasksSpawned, ds.TaskRuns)
	fmt.Printf("allocs %d (colored %d, degraded %d), frees %d, rejected %d\n",
		st.Allocs, st.ColoredPages, st.DegradedAllocs(), st.Frees, st.Rejected)

	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "tintserved:", serveErr)
		os.Exit(1)
	}
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "tintserved:", closeErr)
		os.Exit(1)
	}
	fmt.Println("audit clean")
}
