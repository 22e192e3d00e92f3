package bench

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/wire"
)

// The netserve experiment measures the wire path: the same churn the
// serve experiment runs in-process is driven through real OS sockets
// against a tintserved-shaped daemon (internal/wire). Its subject is
// the protocol overhead and connection-count scaling, so like the
// serve experiment it is host-concurrency dependent and the cmd layer
// does the timing.

// NetServeSpec sizes one connection-scaling cell.
type NetServeSpec struct {
	Name  string // scenario label, e.g. "8_conns"
	Conns int    // concurrent client connections, each its own socket
	Ops   int    // churn operations per connection
}

// NetServeCellResult is one wire cell's outcome.
type NetServeCellResult struct {
	Spec NetServeSpec
	// Ops counts completed client operations, as in ServeCellResult.
	Ops     uint64
	Retries uint64
	Stats   serve.Stats
	Daemon  wire.DaemonStats
}

// RunNetServeCell boots a daemon on a private unix socket, dials
// spec.Conns sessions, runs the standard churn over each from its own
// goroutine, says goodbye, and shuts the daemon down — which audits
// the final state with the cross-shard checker. Each session takes
// the color plan the daemon's dispatch scheduler would hand task i.
func RunNetServeCell(spec NetServeSpec, memBytes uint64, cfg serve.Config) (*NetServeCellResult, error) {
	if spec.Conns < 1 || spec.Ops < 1 {
		return nil, fmt.Errorf("netserve: bad spec %+v", spec)
	}
	completed := make([]uint64, spec.Conns)
	retries := make([]uint64, spec.Conns)
	d, err := onDaemon(memBytes, cfg, func(daemon *wire.Daemon, addr string) error {
		srv := daemon.Server()
		assign, err := sched.PlanAssign(srv.Mapping(), srv.Topology(), wire.UncoloredEvery)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, spec.Conns)
		for i := 0; i < spec.Conns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := wire.Dial("unix", addr)
				if err != nil {
					errs[i] = err
					return
				}
				core, bank, llc := assign(i, i)
				if err := c.Hello(core, bank, llc); err != nil {
					errs[i] = err
					//tintvet:ignore errdrop: hello failed; best-effort hang-up, nothing allocated yet
					_ = c.Close()
					return
				}
				completed[i], retries[i], errs[i] = serveChurn(c, spec.Ops, int64(i)+1)
				if errs[i] == nil {
					errs[i] = c.Goodbye()
				} else {
					//tintvet:ignore errdrop: already failing; churn error wins over hang-up error
					_ = c.Close()
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("conn %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("netserve: %w", err)
	}
	ds := d.Stats()
	if ds.Reclaimed != 0 || ds.ReclaimFailed != 0 {
		return nil, fmt.Errorf("netserve: clean goodbyes left reclaim work: %+v", ds)
	}
	res := &NetServeCellResult{Spec: spec, Stats: d.Server().Stats(), Daemon: ds}
	for i := range completed {
		res.Ops += completed[i]
		res.Retries += retries[i]
	}
	return res, nil
}

// NetServeScalingSpecs is the standard connection-count sweep.
func NetServeScalingSpecs(ops int) []NetServeSpec {
	return []NetServeSpec{
		{Name: "1_conn", Conns: 1, Ops: ops},
		{Name: "4_conns", Conns: 4, Ops: ops},
		{Name: "8_conns", Conns: 8, Ops: ops},
		{Name: "16_conns", Conns: 16, Ops: ops},
		{Name: "32_conns", Conns: 32, Ops: ops},
	}
}

// ChurnSpec sizes one task-churn cell: the daemon's own dispatch
// scheduler admits Tasks simulated tasks under Policy and runs them
// to exit.
type ChurnSpec struct {
	Name   string
	Policy sched.Policy
	Tasks  int
	Ops    int // churn operations per task
}

// ChurnCellResult is one task-churn cell's outcome. Result is fully
// deterministic for a spec (the dispatch scheduler is serial); only
// the cmd layer's wall clock varies.
type ChurnCellResult struct {
	Spec   ChurnSpec
	Result *sched.Result
	Stats  serve.Stats
}

// churnTaskSpecs derives the deterministic task mix for a cell:
// staggered arrivals, a blocking cadence on every other task, and —
// via the daemon's coloring stride — a mix of colored and uncolored
// tasks.
func churnTaskSpecs(spec ChurnSpec) []sched.Spec {
	specs := make([]sched.Spec, spec.Tasks)
	for i := range specs {
		specs[i] = sched.Spec{Arrival: uint32(i % 3), Ops: uint32(spec.Ops)}
		if i%2 == 1 {
			specs[i].BlockEvery = uint32(20 + 10*(i%5))
			specs[i].BlockFor = uint32(1 + i%3)
		}
	}
	return specs
}

// RunChurnCell ships a task batch to the daemon over one session and
// has the daemon's scheduler run it: TaskSpawn × Tasks, one TaskRun,
// then goodbye and the shutdown audit.
func RunChurnCell(spec ChurnSpec, memBytes uint64, cfg serve.Config) (*ChurnCellResult, error) {
	if spec.Tasks < 1 || spec.Ops < 1 {
		return nil, fmt.Errorf("churn: bad spec %+v", spec)
	}
	var res *sched.Result
	d, err := onDaemon(memBytes, cfg, func(_ *wire.Daemon, addr string) error {
		c, err := wire.Dial("unix", addr)
		if err != nil {
			return err
		}
		for i, sp := range churnTaskSpecs(spec) {
			id, err := c.TaskSpawn(sp)
			if err != nil {
				return fmt.Errorf("spawn %d: %w", i, err)
			}
			if id != uint32(i) {
				return fmt.Errorf("spawn %d got id %d", i, id)
			}
		}
		res, err = c.TaskRun(sched.Config{Policy: spec.Policy, Quantum: 16, Cores: 4})
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		for i, tr := range res.Tasks {
			if tr.State != sched.StateExit || tr.Err != "" {
				return fmt.Errorf("task %d ended %v (%s)", i, tr.State, tr.Err)
			}
		}
		return c.Goodbye()
	})
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	return &ChurnCellResult{Spec: spec, Result: res, Stats: d.Server().Stats()}, nil
}

// ChurnScalingSpecs is the standard task-churn sweep: the three
// admission policies at a fixed width, plus a task-count sweep under
// round-robin.
func ChurnScalingSpecs(ops int) []ChurnSpec {
	return []ChurnSpec{
		{Name: "fifo_8_tasks", Policy: sched.FIFO, Tasks: 8, Ops: ops},
		{Name: "rr_8_tasks", Policy: sched.RR, Tasks: 8, Ops: ops},
		{Name: "vrr_8_tasks", Policy: sched.VRR, Tasks: 8, Ops: ops},
		{Name: "rr_2_tasks", Policy: sched.RR, Tasks: 2, Ops: ops},
		{Name: "rr_32_tasks", Policy: sched.RR, Tasks: 32, Ops: ops},
	}
}

// onDaemon boots a tintserved-shaped daemon over a fresh Opteron
// machine of memBytes on a private unix socket, runs cell against it
// at addr, and shuts it down on every path, returning the closed
// daemon for its counters. Close audits the final state at quiesce,
// so after a clean cell its error is the audit verdict; the serve
// loop must then have returned clean too.
func onDaemon(memBytes uint64, cfg serve.Config, cell func(d *wire.Daemon, addr string) error) (*wire.Daemon, error) {
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(memBytes, topo.Nodes())
	if err != nil {
		return nil, err
	}
	d, err := wire.NewDaemon(topo, m, cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	dir, err := os.MkdirTemp("", "tintnet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := net.Listen("unix", filepath.Join(dir, "d.sock"))
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	var serveErr error
	//tintvet:ignore goroleak: the deferred join waits for it — Serve returns once Close has run
	go func() {
		serveErr = d.Serve(l)
		close(served)
	}()
	defer func() {
		d.Close()
		<-served
	}()
	if err := cell(d, l.Addr().String()); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	<-served
	if serveErr != nil {
		return nil, fmt.Errorf("serve loop: %w", serveErr)
	}
	return d, nil
}
