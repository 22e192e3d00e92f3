package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/wire"
)

// daemonEnv is one booted daemon on a private unix socket plus the
// benchmark's sessions to it. Every goroutine it starts (the accept
// loop) has ended once close returns.
type daemonEnv struct {
	topo      *topology.Topology
	mapping   *phys.Mapping
	assign    sched.AssignFunc
	d         *wire.Daemon
	sock      string
	serveDone chan error
	clients   []*wire.Client
}

// bootDaemon is the net workloads' set-up: wire.NewDaemon (shards,
// zones), listen, and Dial+Hello for each session. Session i claims
// the colors the daemon's dispatch plan gives task i (colors=false
// opens an uncolored session).
func bootDaemon(tr *tracer, c runConfig, memBytes uint64, sessions int, colors bool) (*daemonEnv, error) {
	env := &daemonEnv{topo: topology.Opteron6128()}
	m, err := phys.DefaultSeparable(memBytes, env.topo.Nodes())
	if err != nil {
		return nil, err
	}
	env.mapping = m
	if env.assign, err = sched.PlanAssign(m, env.topo, wire.UncoloredEvery); err != nil {
		return nil, err
	}
	id := tr.begin("wire.NewDaemon", -1)
	env.d, err = wire.NewDaemon(env.topo, m, serve.Config{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		_ = env.d.Close() // nothing was served; the set-up error wins
		return nil, err
	}
	env.sock = filepath.Join(c.workdir, fmt.Sprintf("d%d.sock", os.Getpid()))
	_ = os.Remove(env.sock) // a stale socket of a killed run, if any
	l, err := net.Listen("unix", env.sock)
	if err != nil {
		_ = env.d.Close() // nothing was served; the listen error wins
		return nil, err
	}
	env.serveDone = make(chan error, 1)
	go func() { env.serveDone <- env.d.Serve(l) }()
	for i := 0; i < sessions; i++ {
		id := tr.begin("wire.Dial+Hello", -1)
		cl, err := wire.Dial("unix", env.sock)
		if err == nil {
			core, bank, llc := env.assign(i, i)
			if !colors {
				bank, llc = nil, nil
			}
			if err = cl.Hello(core, bank, llc); err != nil {
				_ = cl.Close() // the hello error wins
			}
		}
		tr.end(id)
		if err != nil {
			_ = env.close(tr) // the session error wins
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		env.clients = append(env.clients, cl)
	}
	return env, nil
}

// close says goodbye on every session, shuts the daemon down and
// returns the quiesce audit's verdict.
func (env *daemonEnv) close(tr *tracer) error {
	var errs []error
	for _, cl := range env.clients {
		if err := cl.Goodbye(); err != nil {
			errs = append(errs, err)
		}
	}
	env.clients = nil
	id := tr.begin("Daemon.Close", -1)
	if err := env.d.Close(); err != nil {
		errs = append(errs, fmt.Errorf("daemon close audit: %w", err))
	}
	tr.end(id)
	if err := <-env.serveDone; err != nil {
		errs = append(errs, fmt.Errorf("serve loop: %w", err))
	}
	if err := os.Remove(env.sock); err != nil && !os.IsNotExist(err) {
		errs = append(errs, err)
	}
	return joinErrs(errs)
}

// --- net-churn ---

// churnLive bounds each session's live set.
const churnLive = 512

// churner is one session's closed-loop Alloc/Free churn. Its random
// walk over the live set is a function of the seed alone.
type churner struct {
	rng   *rand.Rand
	owned []phys.Frame
}

func newChurner(seed int64, session int) *churner {
	return &churner{rng: rand.New(rand.NewSource(seed*7919 + int64(session) + 1))}
}

// allocator is the Alloc/Free surface shared by wire.Client and
// serve.Client.
type allocator interface {
	Alloc() (phys.Frame, error)
	Free(phys.Frame) error
}

// step performs one operation and records its latency. A refused
// operation (ErrBusy, ErrNoMemory) is counted as failed and not
// retried within the step.
func (ch *churner) step(a allocator, h *latencyHist) (failed bool, err error) {
	free := len(ch.owned) >= churnLive || (len(ch.owned) > 0 && ch.rng.Intn(2) == 0)
	if free {
		j := ch.rng.Intn(len(ch.owned))
		t0 := time.Now()
		err := a.Free(ch.owned[j])
		h.record(time.Since(t0).Nanoseconds())
		if err != nil {
			return true, err
		}
		ch.owned[j] = ch.owned[len(ch.owned)-1]
		ch.owned = ch.owned[:len(ch.owned)-1]
		return false, nil
	}
	t0 := time.Now()
	f, err := a.Alloc()
	h.record(time.Since(t0).Nanoseconds())
	if errors.Is(err, serve.ErrBusy) || errors.Is(err, serve.ErrNoMemory) {
		return true, nil
	}
	if err != nil {
		return true, err
	}
	ch.owned = append(ch.owned, f)
	return false, nil
}

// drain frees the live set (untimed clean-up).
func (ch *churner) drain(a allocator) error {
	for _, f := range ch.owned {
		if err := a.Free(f); err != nil {
			return err
		}
	}
	ch.owned = nil
	return nil
}

type netChurnRun struct {
	c          runConfig
	env        *daemonEnv
	churners   []*churner
	hist       [churnSessions]latencyHist // untraced wire calls, this epoch
	tracedHist [churnSessions]latencyHist // traced wire calls
	stats      runStats
}

const churnSessions = 2

func newNetChurnRun(c runConfig) *netChurnRun { return &netChurnRun{c: c} }

func (n *netChurnRun) boot(tr *tracer) error {
	env, err := bootDaemon(tr, n.c, 2<<30, churnSessions, true)
	if err != nil {
		return err
	}
	n.env = env
	n.churners = nil
	for i := 0; i < churnSessions; i++ {
		n.churners = append(n.churners, newChurner(n.c.seed, i))
	}
	return nil
}

// round runs c.size.churnOps operations on each session, one
// goroutine per session, and times the pair.
func (n *netChurnRun) round(tr *tracer) (roundResult, error) {
	var rr roundResult
	ops := n.c.size.churnOps
	failed := make([]uint64, churnSessions)
	errs := make([]error, churnSessions)
	hists := &n.hist
	if tr != nil {
		hists = &n.tracedHist
	}
	id := tr.begin("round", -1)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < churnSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, ch, h := n.env.clients[i], n.churners[i], &hists[i]
			for k := 0; k < ops; k++ {
				bad, err := ch.step(cl, h)
				if err != nil {
					errs[i] = err
					return
				}
				if bad {
					failed[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	rr.seconds = time.Since(t0).Seconds()
	tr.end(id)
	if err := joinErrs(errs); err != nil {
		return rr, err
	}
	for i := range failed {
		rr.attempted += uint64(ops)
		rr.failed += failed[i]
	}
	rr.ops = rr.attempted - rr.failed
	n.stats.attempted += rr.attempted
	return rr, nil
}

func (n *netChurnRun) finish(tr *tracer) error {
	var errs []error
	for i, ch := range n.churners {
		if err := ch.drain(n.env.clients[i]); err != nil {
			errs = append(errs, fmt.Errorf("session %d drain: %w", i, err))
		}
	}
	errs = append(errs, n.stats.closeAndCheck(tr, n.env))
	return joinErrs(errs)
}

// runStats sums the daemon counters of every epoch.
type runStats struct {
	serve     serve.Stats
	sessions  uint64
	attempted uint64
}

// closeAndCheck shuts an epoch's daemon down and checks what a clean
// run leaves behind: a clean quiesce audit, no reclaimed session and
// every allocated frame freed.
func (rs *runStats) closeAndCheck(tr *tracer, env *daemonEnv) error {
	errs := []error{env.close(tr)}
	ds := env.d.Stats()
	st := env.d.Server().Stats()
	if ds.Reclaimed != 0 || ds.ReclaimFailed != 0 {
		errs = append(errs, fmt.Errorf("%d sessions reclaimed (%d failed) after clean goodbyes", ds.Reclaimed, ds.ReclaimFailed))
	}
	if st.Allocs != st.Frees {
		errs = append(errs, fmt.Errorf("%d frames allocated, %d freed", st.Allocs, st.Frees))
	}
	rs.sessions += ds.Sessions
	rs.serve.Allocs += st.Allocs
	rs.serve.Refills += st.Refills
	rs.serve.Batches += st.Batches
	rs.serve.BatchedReqs += st.BatchedReqs
	rs.serve.Rejected += st.Rejected
	for i, b := range st.Borrows {
		rs.serve.Borrows[i] += b
	}
	return joinErrs(errs)
}

// serveReference drives session 0's op sequence through an
// in-process serve.Client on a fresh server of the same size, the
// daemon minus the socket and the wire codec.
func (n *netChurnRun) serveReference(h *latencyHist) error {
	srv, err := serve.New(n.env.topo, n.env.mapping, serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	core, bank, llc := n.env.assign(0, 0)
	cl, err := srv.NewClient(core)
	if err != nil {
		return err
	}
	if err := cl.SetColors(bank, llc); err != nil {
		return err
	}
	ch := newChurner(n.c.seed, 0)
	for k := 0; k < n.c.size.churnOps; k++ {
		if _, err := ch.step(cl, h); err != nil {
			return fmt.Errorf("serve reference: %w", err)
		}
	}
	return ch.drain(cl)
}

// codecRoundTripNS times WriteFrame+ReadFrame of an Alloc reply on an
// in-memory buffer: the wire codec without the socket.
func codecRoundTripNS() (float64, error) {
	const n = 200_000
	var buf bytes.Buffer
	payload := make([]byte, 8)
	rbuf := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.MsgAllocReply, payload); err != nil {
			return 0, err
		}
		if _, _, err := wire.ReadFrame(&buf, rbuf); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// merged adds up per-session histograms.
func merged(hs *[churnSessions]latencyHist) *latencyHist {
	var h latencyHist
	for i := range hs {
		h.merge(&hs[i])
	}
	return &h
}

// epochLatencyUS: one sample per untraced wire call.
func (n *netChurnRun) epochLatencyUS() (float64, float64, int) {
	h := merged(&n.hist)
	n.hist = [churnSessions]latencyHist{}
	return h.quantileNS(0.5) / 1e3, h.quantileNS(0.95) / 1e3, int(h.n)
}

func (n *netChurnRun) layers(r *report) error {
	var sh latencyHist
	if err := n.serveReference(&sh); err != nil {
		return err
	}
	h := merged(&n.tracedHist)
	if h.n == 0 || sh.n == 0 {
		return errors.New("net-churn: no traced wire call or serve reference call to measure")
	}
	r.layer("wire.op_us_p50", h.quantileNS(0.5)/1e3, "us")
	r.layer("wire.op_us_p99", h.quantileNS(0.99)/1e3, "us")
	r.layer("wire.op_us_p999", h.quantileNS(0.999)/1e3, "us")
	r.layer("wire.overhead_us", (h.meanNS()-sh.meanNS())/1e3, "us")
	r.layer("serve.op_ns_p50", sh.quantileNS(0.5), "ns")
	r.layer("share.wire", 1-sh.meanNS()/h.meanNS(), "frac")
	r.layer("share.serve", sh.meanNS()/h.meanNS(), "frac")
	// net-churn runs no task through the scheduler.
	r.zero("s", "sched.run_s")
	r.zero("count", "sched.dispatches", "sched.preemptions", "sched.blocks")
	r.zero("frac", "wire.task_overhead_frac", "sched.idle_core_frac")
	return daemonLayers(r, n.stats)
}

// daemonLayers reports the codec reference and the boot, close and
// serving counters every net workload shares.
func daemonLayers(r *report, rs runStats) error {
	codecNS, err := codecRoundTripNS()
	if err != nil {
		return err
	}
	r.layer("wire.codec_ns", codecNS, "ns")
	st := rs.serve
	r.layer("wire.hello_us", 1e6*median(r.tr.seconds("wire.Dial+Hello")), "us")
	r.layer("daemon.boot_s", median(r.tr.seconds("wire.NewDaemon")), "s")
	r.layer("daemon.close_s", median(r.tr.seconds("Daemon.Close")), "s")
	r.layer("daemon.sessions", float64(rs.sessions), "count")
	r.layer("serve.refills", float64(st.Refills), "count")
	r.layer("serve.batch_fill", ratio(st.BatchedReqs, st.Batches), "ratio")
	r.layer("serve.degraded_frac", ratio(st.DegradedAllocs(), st.Allocs), "frac")
	r.layer("serve.busy_retry_frac", ratio(st.Rejected, rs.attempted), "frac")

	// A net workload boots no simulated machine and runs no engine.
	r.zero("s", "boot.machine_s", "boot.zones_s", "engine.run_s", "workload.build_s")
	r.zero("count", "engine.ops", "mem.accesses", "kernel.shootdowns", "kernel.refills")
	r.zero("ns", "engine.self_ns_per_op", "mem.ns_per_access", "kernel.ns_per_fault")
	r.zero("1/kop", "kernel.faults_per_kop")
	r.zero("ratio", "sim.memllc_runtime_ratio")
	r.zero("frac", "mem.l3_miss_frac", "mem.remote_dram_frac", "dram.row_conflict_frac", "kernel.tlb_hit_frac",
		"kernel.colored_frac", "kernel.degraded_frac", "share.engine", "share.mem", "share.kernel", "share.build", "share.prep")
	return nil
}

// --- net-tasks ---

// tasksPerBatch is the number of TaskSpawn calls before each TaskRun.
const tasksPerBatch = 32

// taskConfig is the dispatch configuration of every batch.
var taskConfig = sched.Config{Policy: sched.RR, Quantum: 16, Cores: 4}

// taskSpecs derives one batch: staggered arrivals, scripted blocking
// on every other task, per-task churn seeds from the workload seed.
func taskSpecs(seed int64, ops uint32) []sched.Spec {
	specs := make([]sched.Spec, tasksPerBatch)
	for i := range specs {
		specs[i] = sched.Spec{Arrival: uint32(i % 3), Ops: ops, Seed: seed*1009 + int64(i) + 1}
		if i%2 == 1 {
			specs[i].BlockEvery = uint32(20 + 10*(i%5))
			specs[i].BlockFor = uint32(1 + i%3)
		}
	}
	return specs
}

// schedCounters are the deterministic counters of one batch.
type schedCounters struct {
	Ticks, Dispatches, Preemptions, Blocks, Ops, IdleCores uint64
}

func countersOf(res *sched.Result) schedCounters {
	return schedCounters{res.Ticks, res.Dispatches, res.Preemptions, res.Blocks, res.Ops, res.IdleCores}
}

type netTasksRun struct {
	c       runConfig
	env     *daemonEnv
	specs   []sched.Spec
	first   *schedCounters
	spawnNS []float64 // the current batch's TaskSpawn calls
	spawnUS []float64 // untraced batches' median TaskSpawn call, this epoch

	// Traced rounds.
	tracedSpawnHist latencyHist
	taskRunS        []float64 // the daemon's TaskRun
	schedRunS       []float64 // the in-process reference, batch by batch
	exchangeS       float64
	sum             schedCounters
	stats           runStats
	refSrv          *serve.Server // this epoch's reference server, once traced
}

func newNetTasksRun(c runConfig) *netTasksRun {
	specs := taskSpecs(c.seed, c.size.taskOps)
	return &netTasksRun{c: c, specs: specs, spawnNS: make([]float64, len(specs))}
}

func (n *netTasksRun) boot(tr *tracer) error {
	env, err := bootDaemon(tr, n.c, 256<<20, 1, false)
	if err != nil {
		return err
	}
	n.env = env
	return nil
}

func (n *netTasksRun) round(tr *tracer) (roundResult, error) {
	var rr roundResult
	cl := n.env.clients[0]
	// Collect the previous batch's garbage untimed, so that whether a
	// collection overlaps this batch's spawns does not depend on where
	// the last cycle happened to fall. Cycles this batch triggers are
	// timed.
	runtime.GC()
	id := tr.begin("round", -1)
	t0 := time.Now()
	for i, sp := range n.specs {
		sid := tr.begin("Client.TaskSpawn", id)
		s0 := time.Now()
		_, err := cl.TaskSpawn(sp)
		ns := time.Since(s0).Nanoseconds()
		if tr != nil {
			n.tracedSpawnHist.record(ns)
		}
		n.spawnNS[i] = float64(ns)
		tr.end(sid)
		if err != nil {
			return rr, fmt.Errorf("spawn %d: %w", i, err)
		}
	}
	rid := tr.begin("Client.TaskRun", id)
	r0 := time.Now()
	res, err := cl.TaskRun(taskConfig)
	now := time.Now()
	tr.end(rid)
	rr.seconds = now.Sub(t0).Seconds()
	tr.end(id)
	if err != nil {
		return rr, fmt.Errorf("task run: %w", err)
	}
	rr.ops = res.Ops
	if tr == nil {
		n.spawnUS = append(n.spawnUS, median(n.spawnNS)/1e3)
	}
	var bad []error
	for i, t := range res.Tasks {
		if t.State != sched.StateExit || t.Err != "" {
			rr.failed++
			bad = append(bad, fmt.Errorf("task %d ended %v (%s)", i, t.State, t.Err))
		}
	}
	rr.attempted = res.Ops + rr.failed
	got := countersOf(res)
	if n.first == nil {
		n.first = &got
		fmt.Fprintf(n.c.log, "batch 1 counters: %+v\n", got)
	}
	if got != *n.first {
		bad = append(bad, fmt.Errorf("batch counters %+v differ from batch 1 %+v", got, *n.first))
	}
	if want, ok := n.c.pins.tasks["net-tasks/"+n.c.sizeName]; ok && n.c.seed == defaultSeed && got != want {
		bad = append(bad, fmt.Errorf("batch counters %+v, pinned %+v", got, want))
	}
	if len(bad) > 0 {
		rr.failed = rr.attempted
		rr.checkErr = joinErrs(bad)
	}
	n.stats.attempted += rr.attempted
	if tr != nil {
		n.taskRunS = append(n.taskRunS, now.Sub(r0).Seconds())
		n.exchangeS += rr.seconds
		n.sum.Dispatches += got.Dispatches
		n.sum.Preemptions += got.Preemptions
		n.sum.Blocks += got.Blocks
		n.sum.IdleCores += got.IdleCores
		n.sum.Ticks += got.Ticks
		secs, err := n.schedReference()
		if err != nil {
			return rr, err
		}
		n.schedRunS = append(n.schedRunS, secs)
	}
	return rr, nil
}

// schedReference runs the same batch through sched.Run with the
// in-process serve backend, the daemon's TaskRun minus the wire,
// right after a traced TaskRun so both see the same host. Like the
// daemon's server after its first batch, the epoch's reference server
// is warmed by one untimed batch.
func (n *netTasksRun) schedReference() (float64, error) {
	batch := func() (float64, error) {
		t0 := time.Now()
		res, err := sched.Run(taskConfig, n.specs, sched.NewServeBackend(n.refSrv, n.env.assign))
		secs := time.Since(t0).Seconds()
		if err != nil {
			return 0, fmt.Errorf("sched reference: %w", err)
		}
		if got := countersOf(res); got != *n.first {
			return 0, fmt.Errorf("sched reference counters %+v differ from the daemon's %+v", got, *n.first)
		}
		return secs, nil
	}
	if n.refSrv == nil {
		srv, err := serve.New(n.env.topo, n.env.mapping, serve.Config{})
		if err != nil {
			return 0, err
		}
		n.refSrv = srv
		if _, err := batch(); err != nil {
			return 0, err
		}
	}
	return batch()
}

func (n *netTasksRun) finish(tr *tracer) error {
	if n.refSrv != nil {
		n.refSrv.Close()
		n.refSrv = nil
	}
	return n.stats.closeAndCheck(tr, n.env)
}

// epochLatencyUS: one sample per untraced batch, its median
// TaskSpawn call. Single calls are bimodal in their tail, so their
// 95th percentile jumps between the modes from run to run, and one
// slow call in 32 moves a batch's mean (STEADINESS.md); a batch's
// median call does neither.
func (n *netTasksRun) epochLatencyUS() (float64, float64, int) {
	xs := n.spawnUS
	n.spawnUS = nil
	return quantile(xs, 0.5), quantile(xs, 0.95), len(xs)
}

func (n *netTasksRun) layers(r *report) error {
	var schedTotal float64
	for _, s := range n.schedRunS {
		schedTotal += s
	}
	if len(n.taskRunS) == 0 || n.exchangeS == 0 {
		return errors.New("net-tasks: no traced batch to measure")
	}
	h := &n.tracedSpawnHist
	r.layer("wire.op_us_p50", h.quantileNS(0.5)/1e3, "us")
	r.layer("wire.op_us_p99", h.quantileNS(0.99)/1e3, "us")
	r.layer("wire.op_us_p999", h.quantileNS(0.999)/1e3, "us")
	exchanges := len(n.taskRunS) * (tasksPerBatch + 1)
	r.layer("wire.overhead_us", 1e6*(n.exchangeS-schedTotal)/float64(exchanges), "us")
	run, ref := median(n.taskRunS), median(n.schedRunS)
	r.layer("sched.run_s", ref, "s")
	r.layer("wire.task_overhead_frac", (run-ref)/run, "frac")
	r.layer("share.serve", schedTotal/n.exchangeS, "frac")
	r.layer("share.wire", 1-schedTotal/n.exchangeS, "frac")
	r.layer("sched.dispatches", float64(n.sum.Dispatches), "count")
	r.layer("sched.preemptions", float64(n.sum.Preemptions), "count")
	r.layer("sched.blocks", float64(n.sum.Blocks), "count")
	r.layer("sched.idle_core_frac", ratio(n.sum.IdleCores, n.sum.Ticks*uint64(taskConfig.Cores)), "frac")
	// net-tasks drives serve only through the scheduler.
	r.zero("ns", "serve.op_ns_p50")
	return daemonLayers(r, n.stats)
}
