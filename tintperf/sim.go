package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// simSpec is one simulator workload: a list of bench.Run-level cells
// executed one after another on one machine, the whole list making up
// one timed round.
type simSpec struct {
	memBytes uint64
	config   string
	loads    []workload.Workload
	policies []policy.Policy
	scale    float64
}

func simPaperSpec(sz sizes) simSpec {
	return simSpec{
		memBytes: bench.DefaultMemBytes,
		config:   "16_threads_4_nodes",
		loads:    workload.StandardSuite(),
		policies: []policy.Policy{policy.Buddy, policy.BPM, policy.MEMLLC},
		scale:    sz.paperScale,
	}
}

func simPressureSpec(sz sizes) simSpec {
	return simSpec{
		memBytes: 64 << 20,
		config:   "4_threads_1_nodes",
		loads: []workload.Workload{workload.Garbage(workload.GarbageSpec{
			Footprint: 2 << 20, Block: 8 << 10, Allocs: sz.pressureAllocs,
		})},
		policies: []policy.Policy{policy.Buddy, policy.MEMLLC},
		scale:    1,
	}
}

// cellOutcome is the deterministic part of one cell's result.
type cellOutcome struct {
	Name    string
	Runtime clock.Dur
	Ops     uint64
}

// simPins are a round's outcomes for the default seed.
type simPins struct {
	Ops   uint64
	Cells []cellOutcome
}

type simRun struct {
	name  string
	c     runConfig
	spec  simSpec
	churn int64
	mach  *bench.Machine
	cfg   bench.Config
	first []cellOutcome        // round 1, which every later round must repeat
	perOp map[string][]float64 // untraced host µs per engine op, by cell

	lt simLayers
}

// simLayers accumulates the traced per-layer measurements.
type simLayers struct {
	cellS, prepS, buildS, engineS float64
	ops, accesses                 uint64
	faultExcessNS                 float64
	replayNS                      float64
	replayN                       uint64
	l3Acc, l3Miss                 uint64
	dramReads, remoteDRAM         uint64
	dramAcc, rowConflicts         uint64
	kern                          kernel.Stats
	runtimes                      map[policy.Policy]clock.Dur
}

// replayCap bounds how many accesses of each traced cell are kept for
// the memory-model replay.
const replayCap = 200_000

func newSimRun(name string, spec simSpec, c runConfig) *simRun {
	return &simRun{name: name, c: c, spec: spec, churn: churnSeed(c.seed), perOp: make(map[string][]float64)}
}

// churnSeed derives the zone-aging seed from the workload seed.
func churnSeed(seed int64) int64 { return 0x7113 + (seed&0xfffff)*131 + 1 }

func (s *simRun) boot(tr *tracer) error {
	id := tr.begin("bench.NewMachine", -1)
	mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: s.spec.memBytes})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("Machine.NewKernel", -1)
	_, err = mach.NewKernel(s.churn) // ages and caches the zones
	tr.end(id)
	if err != nil {
		return err
	}
	cfg, err := bench.ConfigByName(mach.Topo, s.spec.config)
	if err != nil {
		return err
	}
	s.mach, s.cfg = mach, cfg
	return nil
}

func (s *simRun) round(tr *tracer) (roundResult, error) {
	var rr roundResult
	var cells []cellOutcome
	var checkErrs []error
	for _, wl := range s.spec.loads {
		for _, p := range s.spec.policies {
			out, secs, err := s.cell(tr, wl, p)
			if err != nil {
				return rr, err
			}
			rr.seconds += secs
			rr.ops += out.ops
			if tr == nil && out.ops > 0 {
				name := wl.Name + "/" + p.String()
				s.perOp[name] = append(s.perOp[name], 1e6*secs/float64(out.ops))
			}
			rr.attempted += out.ops
			cells = append(cells, cellOutcome{Name: wl.Name + "/" + p.String(), Runtime: out.runtime, Ops: out.ops})
			if out.auditErr != nil {
				rr.failed += out.ops
				checkErrs = append(checkErrs, fmt.Errorf("%s/%s: %w", wl.Name, p, out.auditErr))
			}
		}
	}
	if s.first == nil {
		s.first = cells
		fmt.Fprintf(s.c.log, "round 1 outcome: %s\n", formatCells(cells))
	}
	if err := checkCells(s.first, cells); err != nil {
		checkErrs = append(checkErrs, fmt.Errorf("round differs from round 1: %w", err))
	}
	if want, ok := s.c.pins.sim[s.name+"/"+s.c.sizeName]; ok && s.c.seed == defaultSeed {
		var got uint64
		for _, c := range cells {
			got += c.Ops
		}
		if got != want.Ops {
			checkErrs = append(checkErrs, fmt.Errorf("engine ops %d, pinned %d", got, want.Ops))
		}
		if err := checkCells(want.Cells, cells); err != nil {
			checkErrs = append(checkErrs, fmt.Errorf("pinned outcome: %w", err))
		}
	}
	if len(checkErrs) > 0 {
		rr.failed = rr.attempted
		rr.checkErr = joinErrs(checkErrs)
	}
	return rr, nil
}

func checkCells(want, got []cellOutcome) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("cell %s: runtime %d ops %d, want %s runtime %d ops %d",
				got[i].Name, got[i].Runtime, got[i].Ops, want[i].Name, want[i].Runtime, want[i].Ops)
		}
	}
	return nil
}

type cellResult struct {
	runtime  clock.Dur
	ops      uint64
	auditErr error
}

// access is one delivered access, kept for the memory-model replay.
type access struct {
	core  topology.CoreID
	pa    phys.Addr
	write bool
	at    clock.Time
}

// cell runs one bench.Run-level cell and returns the host seconds of
// its execution. The invariant audit runs after the clock stops.
func (s *simRun) cell(tr *tracer, wl workload.Workload, p policy.Policy) (cellResult, float64, error) {
	var res cellResult
	var k *kernel.Kernel
	var e *engine.Engine
	var prepEnd, buildStart, buildEnd time.Time

	var clk accessClock
	var rec []access

	traced := tr != nil
	spec := bench.RunSpec{
		Workload: wl, Config: s.cfg, Policy: p,
		Params:    workload.Params{Seed: s.c.seed, Scale: s.spec.scale},
		ChurnSeed: s.churn,
	}
	if traced {
		build := wl.Build
		spec.Workload.Build = func(threads []engine.Thread, params workload.Params) ([]engine.Phase, error) {
			buildStart = time.Now()
			phases, err := build(threads, params)
			buildEnd = time.Now()
			clk.last = buildEnd
			return phases, err
		}
	}
	instrument := func(kk *kernel.Kernel, ee *engine.Engine) {
		k, e = kk, ee
		if !traced {
			return
		}
		prepEnd = time.Now()
		threads := ee.Threads()
		rec = make([]access, 0, replayCap)
		ee.SetTracer(func(ev engine.TraceEvent) {
			clk.tick(int(ev.Level), ev.FaultCycles > 0)
			if len(rec) < cap(rec) {
				rec = append(rec, access{
					core: threads[ev.Thread].Task.Core(), pa: ev.PA,
					write: ev.Write, at: ev.Start + ev.FaultCycles,
				})
			}
		})
	}

	id := tr.begin("bench.Run "+wl.Name+"/"+p.String(), -1)
	t0 := time.Now()
	m, err := bench.RunInstrumented(s.mach, spec, instrument)
	secs := time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return res, 0, err
	}
	res.runtime, res.ops = m.Runtime, m.Ops
	res.auditErr = invariant.Audit(k).Err()

	if traced {
		cellEnd := t0.Add(time.Duration(secs * 1e9))
		tr.add("Workload.Build", buildStart, buildEnd, id)
		tr.add("engine.Run", buildEnd, cellEnd, id)
		s.lt.cellS += secs
		s.lt.prepS += prepEnd.Sub(t0).Seconds()
		s.lt.buildS += buildEnd.Sub(buildStart).Seconds()
		s.lt.engineS += cellEnd.Sub(buildEnd).Seconds()
		s.lt.ops += m.Ops
		s.lt.faultExcessNS += clk.faultExcessNS()
		ts := e.Mem().TotalStats()
		s.lt.accesses += ts.Accesses
		s.lt.dramReads += ts.DRAMReads
		s.lt.remoteDRAM += ts.RemoteDRAM
		l3 := e.Mem().L3Stats()
		s.lt.l3Acc += l3.Accesses
		s.lt.l3Miss += l3.Misses
		d := e.Mem().DRAM().TotalStats()
		s.lt.dramAcc += d.Accesses
		s.lt.rowConflicts += d.RowConflicts
		addKernelStats(&s.lt.kern, k.Stats())
		if s.lt.runtimes == nil {
			s.lt.runtimes = make(map[policy.Policy]clock.Dur)
		}
		s.lt.runtimes[p] += m.Runtime
		if err := s.replay(rec); err != nil {
			return res, 0, err
		}
	}
	return res, secs, nil
}

// replay pushes recorded accesses through a fresh memory system and
// times the model alone.
func (s *simRun) replay(rec []access) error {
	if len(rec) == 0 {
		return nil
	}
	ms, err := mem.New(s.mach.Topo, s.mach.Mapping, s.mach.MemCfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, a := range rec {
		ms.AccessLevel(a.core, a.pa, a.write, a.at)
	}
	s.lt.replayNS += float64(time.Since(t0).Nanoseconds())
	s.lt.replayN += uint64(len(rec))
	return nil
}

func addKernelStats(dst *kernel.Stats, st kernel.Stats) {
	dst.Faults += st.Faults
	dst.ColoredPages += st.ColoredPages
	dst.BuddyPages += st.BuddyPages
	dst.Refills += st.Refills
	dst.TLBHits += st.TLBHits
	dst.TLBMisses += st.TLBMisses
	dst.TLBShootdowns += st.TLBShootdowns
	for i, n := range st.DegradedAllocs {
		dst.DegradedAllocs[i] += n
	}
}

// finish drops the machine; every cell was audited as it ended.
func (s *simRun) finish(tr *tracer) error { s.mach = nil; return nil }

// epochLatencyUS: each cell's mean host time per engine op is one
// sample; the percentiles are taken over the cells' medians, so they
// rank the cells' per-op cost rather than the host's momentary noise.
func (s *simRun) epochLatencyUS() (float64, float64, int) {
	var meds []float64
	n := 0
	for _, xs := range s.perOp {
		meds = append(meds, median(xs))
		n += len(xs)
	}
	s.perOp = make(map[string][]float64)
	return quantile(meds, 0.5), quantile(meds, 0.95), n
}

// formatCells prints a round's outcome in the form pins.go holds.
func formatCells(cells []cellOutcome) string {
	var b strings.Builder
	var ops uint64
	for _, c := range cells {
		ops += c.Ops
		fmt.Fprintf(&b, "{%q, %d, %d}, ", c.Name, c.Runtime, c.Ops)
	}
	return fmt.Sprintf("Ops: %d, Cells: []cellOutcome{%s}", ops, strings.TrimSuffix(b.String(), ", "))
}

func (s *simRun) layers(r *report) error {
	lt := &s.lt
	if lt.cellS == 0 {
		return fmt.Errorf("%s: no traced cell to measure", s.name)
	}
	r.layer("boot.machine_s", median(r.tr.seconds("bench.NewMachine")), "s")
	r.layer("boot.zones_s", median(r.tr.seconds("Machine.NewKernel")), "s")
	r.layer("engine.run_s", lt.engineS, "s")
	r.layer("engine.ops", float64(lt.ops), "count")
	r.layer("workload.build_s", lt.buildS, "s")
	memNS := 0.0
	if lt.replayN > 0 {
		memNS = lt.replayNS / float64(lt.replayN)
	}
	r.layer("mem.ns_per_access", memNS, "ns")
	r.layer("mem.accesses", float64(lt.accesses), "count")
	r.layer("mem.l3_miss_frac", ratio(lt.l3Miss, lt.l3Acc), "frac")
	r.layer("mem.remote_dram_frac", ratio(lt.remoteDRAM, lt.dramReads), "frac")
	r.layer("dram.row_conflict_frac", ratio(lt.rowConflicts, lt.dramAcc), "frac")
	k := lt.kern
	kernNS := lt.faultExcessNS
	if kernNS < 0 {
		kernNS = 0
	}
	perFault := 0.0
	if k.Faults > 0 {
		perFault = kernNS / float64(k.Faults)
	}
	r.layer("kernel.ns_per_fault", perFault, "ns")
	r.layer("kernel.faults_per_kop", 1000*ratio(k.Faults, lt.ops), "1/kop")
	r.layer("kernel.tlb_hit_frac", ratio(k.TLBHits, k.TLBHits+k.TLBMisses), "frac")
	r.layer("kernel.shootdowns", float64(k.TLBShootdowns), "count")
	var degraded uint64
	for _, n := range k.DegradedAllocs {
		degraded += n
	}
	pages := k.ColoredPages + k.BuddyPages + degraded
	r.layer("kernel.colored_frac", ratio(k.ColoredPages, pages), "frac")
	r.layer("kernel.degraded_frac", ratio(degraded, pages), "frac")
	r.layer("kernel.refills", float64(k.Refills), "count")
	r.layer("sim.memllc_runtime_ratio", ratio(uint64(lt.runtimes[policy.MEMLLC]), uint64(lt.runtimes[policy.Buddy])), "ratio")
	memS := memNS * float64(lt.accesses) / 1e9
	traceS := tracerCostNS() * float64(lt.accesses) / 1e9
	selfS := lt.engineS - memS - kernNS/1e9 - traceS
	if selfS < 0 {
		selfS = 0
	}
	r.layer("engine.self_ns_per_op", 1e9*selfS/float64(lt.ops), "ns")
	// Shares of the cell time the program itself spent, tracer excluded.
	progS := lt.cellS - traceS
	r.layer("share.engine", selfS/progS, "frac")
	r.layer("share.mem", memS/progS, "frac")
	r.layer("share.kernel", kernNS/1e9/progS, "frac")
	r.layer("share.build", lt.buildS/progS, "frac")
	r.layer("share.prep", lt.prepS/progS, "frac")

	// A simulator run starts no daemon, serve client or scheduler.
	r.zero("us", "wire.op_us_p50", "wire.op_us_p99", "wire.op_us_p999", "wire.overhead_us", "wire.hello_us")
	r.zero("ns", "wire.codec_ns", "serve.op_ns_p50")
	r.zero("s", "daemon.boot_s", "daemon.close_s", "sched.run_s")
	r.zero("count", "daemon.sessions", "serve.refills", "sched.dispatches", "sched.preemptions", "sched.blocks")
	r.zero("ratio", "serve.batch_fill")
	r.zero("frac", "serve.degraded_frac", "serve.busy_retry_frac", "wire.task_overhead_frac", "sched.idle_core_frac",
		"share.wire", "share.serve")
	return nil
}

// accessClock buckets the host time between consecutive delivered
// accesses by memory level and by whether the access faulted.
type accessClock struct {
	last  time.Time
	sumNS [8][2]float64
	cnt   [8][2]uint64
}

func (a *accessClock) tick(level int, faulted bool) {
	now := time.Now()
	f := 0
	if faulted {
		f = 1
	}
	a.sumNS[level&7][f] += float64(now.Sub(a.last))
	a.cnt[level&7][f]++
	a.last = now
}

// faultExcessNS is the time of faulted intervals beyond the unfaulted
// mean interval of the same level: fault handling, plus the
// workload's Mmap/Munmap calls that precede a first touch.
func (a *accessClock) faultExcessNS() float64 {
	var ns float64
	for lv := range a.sumNS {
		if a.cnt[lv][1] == 0 {
			continue
		}
		base := 0.0
		if a.cnt[lv][0] > 0 {
			base = a.sumNS[lv][0] / float64(a.cnt[lv][0])
		}
		ns += a.sumNS[lv][1] - base*float64(a.cnt[lv][1])
	}
	return ns
}

var calibSink uint64

// tracerCostNS times accessClock.tick, the per-access work the cell
// tracer adds, so it can be taken out of the engine's self time.
func tracerCostNS() float64 {
	const n = 1_000_000
	a := accessClock{last: time.Now()}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a.tick(i, i&1 == 1)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	calibSink += a.cnt[0][0]
	return ns
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
