package bench

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/stats"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The audited cell runner behind the adaptive and chaos experiments,
// and the adaptive policy engine harness (DESIGN.md Sec. 15): a
// heterogeneous workload runs once per static policy and once under
// the online engine — classifier decisions at every phase barrier,
// Task.Repolicy switches debounced by hysteresis, and the budgeted
// compaction daemon migrating loans and misplaced pages home. Every
// cell of either experiment runs through RunAdaptive with the
// invariant auditor (check 7 included) wired to every phase, twice,
// compared field-for-field (runTwice).

// Adaptive experiment sizing. The machine is deliberately small and
// all threads share one node: per-thread color capacity is what the
// streamers must overflow. The streamer footprint below is absolute;
// heteromix scales its reuser's hot array and its churner's
// replacement count with Params.Scale, which is why RunAdaptiveMatrix
// runs at scale 1 whatever it is given.
const (
	adaptiveMemBytes    = 64 << 20 // 16 MiB per node (the PCI decode minimum); node 0 is the arena
	adaptiveStreamBytes = 8 << 20  // per-streamer footprint: 2048 pages
	adaptiveEpochs      = 6
	adaptiveConfig      = "4_threads_1_nodes"
	// AdaptiveCompactBudget is the compaction daemon's per-task,
	// per-barrier page-move budget.
	AdaptiveCompactBudget = 64
)

// AdaptiveOptions configures one audited cell.
type AdaptiveOptions struct {
	Workload workload.Workload
	Config   Config
	Params   workload.Params
	// Initial is the policy every task starts under (the static
	// baseline the engine departs from).
	Initial policy.Policy
	// Adaptive installs the barrier-hook engine; false runs the
	// workload as a plain static cell.
	Adaptive bool
	// CompactBudget is the per-task page-move budget per barrier
	// (<= 0 disables compaction).
	CompactBudget int
	// Lag is the hysteresis debounce (0 = policy.DefaultHysteresisLag).
	Lag int
	// Plan, when non-nil, wires the named fault plan into the run.
	Plan *fault.Plan
}

// Switch records one released policy transition, for the report and
// the determinism comparison.
type Switch struct {
	Phase  string
	Thread int
	From   string
	To     string
}

// AdaptiveRow is one audited cell: a workload under a static policy
// or the adaptive engine, clean or under a fault plan. It is a row of
// both the adaptive and the chaos matrix.
type AdaptiveRow struct {
	Workload string
	Policy   string // static policy name, or "adaptive(<initial>)"
	Plan     string // "clean" or the fault plan name
	// OOM reports that the run died of machine-wide exhaustion under
	// the plan (possible when a plan makes every zone of a request
	// refuse at once); metrics other than Kern/Inj are then zero.
	OOM     bool
	Metrics RunMetrics
	Kern    kernel.Stats
	Inj     fault.Stats // the injector's counters (zero when clean)
	Loans   int         // loans still outstanding at run end
	Audits  int         // invariant audits passed (one per engine phase)
	// Adaptive engine outcomes (zero for static rows).
	Switches    []Switch
	Repolicies  uint64
	CompactCost clock.Dur
	Compact     kernel.CompactStats
}

// DegradedTotal sums the row's ladder allocations across rungs.
func (r *AdaptiveRow) DegradedTotal() uint64 {
	var t uint64
	for _, n := range r.Kern.DegradedAllocs {
		t += n
	}
	return t
}

// DegradedRate returns ladder allocations as a fraction of all page
// faults served.
func (r *AdaptiveRow) DegradedRate() float64 {
	return stats.Ratio(float64(r.DegradedTotal()), float64(r.Kern.Faults))
}

// adaptiveDriver is the per-run state of the online engine: one
// hysteresis tracker and one feature-delta snapshot per thread.
type adaptiveDriver struct {
	k       *kernel.Kernel
	e       *engine.Engine
	threads []engine.Thread
	cores   []topology.CoreID
	base    []policy.Assignment // full MEM+LLC plan; switches apply subsets
	bankCap []uint64            // frame supply of each thread's bank colors
	llcCap  []uint64            // cache pages behind each thread's LLC colors
	hyst    []*policy.Hysteresis
	budget  int

	prevFaults   []uint64
	prevDegraded []uint64
	prevCore     []mem.CoreStats

	row *AdaptiveRow
}

// subsetFor projects the thread's full MEM+LLC assignment onto the
// classifier's decision. Subsets of a disjoint plan stay disjoint, so
// switching threads independently can never create a color conflict.
// Every policy policy.Classify can emit needs a case here — the
// classifier-row rule (CONTRIBUTING.md).
func subsetFor(p policy.Policy, full policy.Assignment) (policy.Assignment, error) {
	switch p {
	case policy.Buddy:
		return policy.Assignment{}, nil
	case policy.MEMOnly:
		return policy.Assignment{BankColors: full.BankColors}, nil
	case policy.LLCOnly:
		return policy.Assignment{LLCColors: full.LLCColors}, nil
	case policy.MEMLLC:
		return full, nil
	}
	return policy.Assignment{}, fmt.Errorf("bench: classifier emitted %s, which has no assignment subset", p)
}

// barrier is the engine's phase-barrier hook: sample, classify,
// debounce, repolicy, compact. The returned cost (preferred-path
// allocations plus the per-page copy charge) extends the barrier, so
// daemon work is paid for by the program it serves.
func (d *adaptiveDriver) barrier(phase string) (clock.Dur, error) {
	ms := d.e.Mem()
	for i, th := range d.threads {
		t := th.Task
		faults, degraded := t.Faults(), t.Degraded()
		cs := ms.CoreStats(d.cores[i])
		dAcc := cs.Accesses - d.prevCore[i].Accesses
		dDRAM := cs.DRAMReads - d.prevCore[i].DRAMReads
		dRemote := cs.RemoteDRAM - d.prevCore[i].RemoteDRAM
		dFaults := faults - d.prevFaults[i]
		dDegraded := degraded - d.prevDegraded[i]
		sample := policy.TaskSample{
			FootprintPages:    t.ResidentPages(),
			BankCapacityPages: d.bankCap[i],
			LLCCapacityPages:  d.llcCap[i],
			Accesses:          dAcc,
		}
		if dFaults > 0 {
			sample.LoanRate = float64(dDegraded) / float64(dFaults)
		}
		if dAcc > 0 {
			sample.LLCMissRate = float64(dDRAM) / float64(dAcc)
		}
		if dDRAM > 0 {
			sample.RemoteFrac = float64(dRemote) / float64(dDRAM)
		}
		d.prevFaults[i], d.prevDegraded[i], d.prevCore[i] = faults, degraded, cs

		decision, confident := policy.Classify(sample)
		if !confident {
			continue
		}
		from := d.hyst[i].Current()
		if !d.hyst[i].Observe(decision) {
			continue
		}
		asn, err := subsetFor(decision, d.base[i])
		if err != nil {
			return 0, err
		}
		if err := t.Repolicy(asn.BankColors, asn.LLCColors); err != nil {
			return 0, fmt.Errorf("bench: adaptive repolicy thread %d -> %s: %w", i, decision, err)
		}
		d.row.Switches = append(d.row.Switches, Switch{
			Phase: phase, Thread: i, From: from.String(), To: decision.String(),
		})
	}
	// Compaction daemon: one budgeted step per task, after the
	// decisions so freshly released colors are already reconciled.
	var cost clock.Dur
	if d.budget > 0 {
		for _, th := range d.threads {
			st := th.Task.CompactStep(d.budget)
			cost += st.Cost
			d.row.Compact.LoansMoved += st.LoansMoved
			d.row.Compact.LoansFailed += st.LoansFailed
			d.row.Compact.PagesScanned += st.PagesScanned
			d.row.Compact.PagesMoved += st.PagesMoved
			d.row.Compact.PagesFailed += st.PagesFailed
		}
	}
	d.row.CompactCost += cost
	return cost, nil
}

// RunAdaptive executes one cell with the auditor attached and, when
// opts.Plan is non-nil, the fault injector wired into the fresh
// kernel.
func RunAdaptive(mach *Machine, opts AdaptiveOptions) (AdaptiveRow, error) {
	name := opts.Initial.String()
	if opts.Adaptive {
		name = fmt.Sprintf("adaptive(%s)", opts.Initial)
	}
	row := AdaptiveRow{Workload: opts.Workload.Name, Policy: name, Plan: "clean"}
	spec := RunSpec{
		Workload: opts.Workload,
		Config:   opts.Config,
		Policy:   opts.Initial,
		Params:   opts.Params,
	}
	var (
		inj     *fault.Injector
		kk      *kernel.Kernel
		wireErr error
	)
	m, err := RunInstrumented(mach, spec, func(k *kernel.Kernel, e *engine.Engine) {
		kk = k
		if opts.Plan != nil {
			row.Plan = opts.Plan.Name
			inj = fault.New(chaosSeed(spec.Params.Seed, opts.Plan.Name), *opts.Plan)
			if werr := inj.Wire(k); werr != nil {
				wireErr = werr
				return
			}
		}
		e.SetAuditHook(func() error {
			row.Audits++
			return invariant.Audit(k).Err()
		})
		if !opts.Adaptive {
			return
		}
		threads := e.Threads()
		base, perr := policy.Plan(policy.MEMLLC, mach.Mapping, mach.Topo, opts.Config.Cores)
		if perr != nil {
			wireErr = perr
			return
		}
		lag := opts.Lag
		if lag == 0 {
			lag = policy.DefaultHysteresisLag
		}
		// Capacity features: the frame supply behind each thread's
		// bank-color claim and the cache pages behind its LLC-color
		// claim, so the classifier can refuse colors that cannot hold
		// the task's working set.
		perColor := make([]uint64, mach.Mapping.NumBankColors())
		for f := phys.Frame(0); uint64(f) < mach.Mapping.Frames(); f++ {
			perColor[mach.Mapping.FrameBankColor(f)]++
		}
		llcPerColor := mach.MemCfg.L3.SizeBytes / phys.PageSize / uint64(mach.Mapping.NumLLCColors())
		bankCap := make([]uint64, len(threads))
		llcCap := make([]uint64, len(threads))
		for i := range base {
			for _, bc := range base[i].BankColors {
				bankCap[i] += perColor[bc]
			}
			llcCap[i] = llcPerColor * uint64(len(base[i].LLCColors))
		}
		d := &adaptiveDriver{
			k: k, e: e, threads: threads, cores: opts.Config.Cores,
			base: base, bankCap: bankCap, llcCap: llcCap,
			budget: opts.CompactBudget, row: &row,
			prevFaults:   make([]uint64, len(threads)),
			prevDegraded: make([]uint64, len(threads)),
			prevCore:     make([]mem.CoreStats, len(threads)),
			hyst:         make([]*policy.Hysteresis, len(threads)),
		}
		for i := range threads {
			h, herr := policy.NewHysteresis(opts.Initial, lag)
			if herr != nil {
				wireErr = herr
				return
			}
			d.hyst[i] = h
		}
		e.SetBarrierHook(d.barrier)
	})
	if wireErr != nil {
		return row, wireErr
	}
	if kk != nil {
		row.Kern = kk.Stats()
		row.Loans = kk.Loans()
		row.Repolicies = row.Kern.Repolicies
	}
	if inj != nil {
		row.Inj = inj.Stats()
	}
	switch {
	case err == nil:
		row.Metrics = m
	case opts.Plan != nil && errors.Is(err, kernel.ErrNoMemory):
		// Under an injected plan, machine-wide OOM is a legitimate —
		// and deterministic — outcome, not a harness failure.
		row.OOM = true
		row.Metrics = RunMetrics{}
	default:
		return row, err
	}
	return row, nil
}

// runTwice enforces the determinism contract the fault injector is
// built around: the cell executes twice on fresh machine state, and a
// run that is not byte-identical under a fixed seed fails.
func runTwice(mach *Machine, opts AdaptiveOptions) (AdaptiveRow, error) {
	first, err := RunAdaptive(mach, opts)
	if err != nil {
		return first, err
	}
	again, err := RunAdaptive(mach, opts)
	if err != nil {
		return first, err
	}
	if !reflect.DeepEqual(first, again) {
		return first, fmt.Errorf("bench: cell %s/%s/%s is nondeterministic: %+v != %+v",
			first.Workload, first.Policy, first.Plan, first, again)
	}
	return first, nil
}

// AdaptiveResult is the full adaptive-vs-static matrix on one
// machine, workload and configuration.
type AdaptiveResult struct {
	Config   Config
	Workload string
	Rows     []AdaptiveRow // statics in staticPolicies order, then adaptive
}

// staticPolicies are the baselines the engine must beat — the
// classifier's whole output domain run as fixed policies.
func staticPolicies() []policy.Policy {
	return []policy.Policy{policy.Buddy, policy.MEMOnly, policy.LLCOnly, policy.MEMLLC}
}

// NewAdaptiveMachine builds the harness's dedicated machine: small
// enough that the heteromix streamers overflow every per-thread color
// budget.
func NewAdaptiveMachine() (*Machine, error) {
	mach, err := NewMachine(MachineOptions{MemBytes: adaptiveMemBytes})
	if err != nil {
		return nil, err
	}
	// Age the machine harder than the evaluation default: the adaptive
	// engine's pitch is long-lived workloads on a kernel whose buddy
	// lists have decayed, where an uncolored allocation lands remote
	// one time in four. Colored placement is immune to the decay —
	// that asymmetry is exactly what the colored early epochs buy.
	mach.KernCfg.BuddyRemoteFrac = 0.25
	return mach, nil
}

// AdaptiveWorkload is the harness's heteromix instance. Its streamer
// footprint is absolute; the reuser's hot array and the churner's
// replacement count scale with Params.Scale.
func AdaptiveWorkload() workload.Workload {
	return workload.HeteroMix(workload.HeteroSpec{
		StreamBytes: adaptiveStreamBytes,
		Epochs:      adaptiveEpochs,
	})
}

// RunAdaptiveMatrix runs the showcase: heteromix under every static
// policy and under the adaptive engine, each cell twice (determinism)
// with the auditor at every barrier, plus one chaos rerun of the
// adaptive cell under `plan` when non-nil. It takes only the seed
// from params and runs at scale 1: a smaller hot array and fewer
// churner replacements put the roles on the wrong side of the
// classifier's thresholds, and the engine then never switches.
func RunAdaptiveMatrix(mach *Machine, params workload.Params, plan *fault.Plan) (*AdaptiveResult, error) {
	params.Scale = 1
	cfg, err := ConfigByName(mach.Topo, adaptiveConfig)
	if err != nil {
		return nil, err
	}
	wl := AdaptiveWorkload()
	out := &AdaptiveResult{Config: cfg, Workload: wl.Name}
	for _, p := range staticPolicies() {
		row, err := runTwice(mach, AdaptiveOptions{
			Workload: wl, Config: cfg, Params: params, Initial: p,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	// The adaptive row departs from static MEM — the paper's
	// per-program contract is the natural thing to launch under, and
	// the engine's job is to notice which threads it does not fit.
	adaptive := AdaptiveOptions{
		Workload: wl, Config: cfg, Params: params,
		Initial: policy.MEMOnly, Adaptive: true,
		CompactBudget: AdaptiveCompactBudget,
	}
	row, err := runTwice(mach, adaptive)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)
	if plan != nil {
		chaos := adaptive
		chaos.Plan = plan
		row, err := runTwice(mach, chaos)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RunAdaptiveExperiment is the adaptive experiment as tintbench runs
// it, under -exp adaptive and as the -exp bench series: the matrix on
// its dedicated machine, with the adaptive cell rerun under the
// migrate-flaky fault plan, and Check. Only the seed of params
// matters: RunAdaptiveMatrix runs at scale 1.
func RunAdaptiveExperiment(params workload.Params) (*AdaptiveResult, error) {
	mach, err := NewAdaptiveMachine()
	if err != nil {
		return nil, err
	}
	plan, err := fault.PlanByName("migrate-flaky")
	if err != nil {
		return nil, err
	}
	r, err := RunAdaptiveMatrix(mach, params, &plan)
	if err != nil {
		return nil, err
	}
	if err := r.Check(); err != nil {
		return nil, err
	}
	return r, nil
}

// AdaptiveRowByPolicy finds a clean row by its policy label.
func (a *AdaptiveResult) AdaptiveRowByPolicy(name string) *AdaptiveRow {
	for i := range a.Rows {
		if a.Rows[i].Policy == name && a.Rows[i].Plan == "clean" {
			return &a.Rows[i]
		}
	}
	return nil
}

// adaptiveRow finds the clean engine row, whatever its initial policy.
func (a *AdaptiveResult) adaptiveRow() *AdaptiveRow {
	for i := range a.Rows {
		if a.Rows[i].Plan == "clean" && strings.HasPrefix(a.Rows[i].Policy, "adaptive(") {
			return &a.Rows[i]
		}
	}
	return nil
}

// Check asserts the experiment's acceptance criteria: the adaptive
// row beats every static policy on suite runtime, and its ladder
// total undercuts static MEM (the paper's MEM+BANK contract).
func (a *AdaptiveResult) Check() error {
	ad := a.adaptiveRow()
	if ad == nil {
		return fmt.Errorf("bench: adaptive row missing")
	}
	if ad.OOM {
		return fmt.Errorf("bench: adaptive row OOMed")
	}
	for _, p := range staticPolicies() {
		st := a.AdaptiveRowByPolicy(p.String())
		if st == nil {
			return fmt.Errorf("bench: static %s row missing", p)
		}
		if st.OOM {
			return fmt.Errorf("bench: static %s row OOMed", p)
		}
		if ad.Metrics.Runtime >= st.Metrics.Runtime {
			return fmt.Errorf("bench: adaptive runtime %d does not beat static %s (%d)",
				ad.Metrics.Runtime, p, st.Metrics.Runtime)
		}
		if ad.Metrics.Ops != st.Metrics.Ops {
			return fmt.Errorf("bench: adaptive ops %d != static %s ops %d (engine work must be policy-invariant)",
				ad.Metrics.Ops, p, st.Metrics.Ops)
		}
	}
	mem := a.AdaptiveRowByPolicy(policy.MEMOnly.String())
	if ad.DegradedTotal() >= mem.DegradedTotal() {
		return fmt.Errorf("bench: adaptive degraded allocs %d not below static %s (%d)",
			ad.DegradedTotal(), policy.MEMOnly, mem.DegradedTotal())
	}
	if len(ad.Switches) == 0 {
		return fmt.Errorf("bench: adaptive run released no policy switches on a heterogeneous mix")
	}
	return nil
}

// WriteTable prints the adaptive matrix.
func (a *AdaptiveResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Adaptive — %s on %s\n", a.Workload, a.Config.Name)
	fmt.Fprintf(w, "%-18s %-12s %12s %8s %7s %7s %6s %6s %6s %6s %9s %7s %6s\n",
		"policy", "plan", "runtime", "degr", "loans", "switch",
		"lmv", "lfail", "pmv", "pfail", "cost", "remote%", "audits")
	for i := range a.Rows {
		r := &a.Rows[i]
		runtime := fmt.Sprintf("%d", r.Metrics.Runtime)
		if r.OOM {
			runtime = "OOM"
		}
		fmt.Fprintf(w, "%-18s %-12s %12s %8d %7d %7d %6d %6d %6d %6d %9d %6.1f%% %6d\n",
			r.Policy, r.Plan, runtime, r.DegradedTotal(), r.Loans,
			len(r.Switches), r.Compact.LoansMoved, r.Compact.LoansFailed,
			r.Compact.PagesMoved, r.Compact.PagesFailed,
			r.CompactCost, r.Metrics.RemoteDRAMFrac*100, r.Audits)
	}
	ad := a.adaptiveRow()
	if ad != nil && len(ad.Switches) > 0 {
		fmt.Fprintf(w, "\nPolicy switches (phase barrier, thread, from -> to)\n")
		for _, s := range ad.Switches {
			fmt.Fprintf(w, "  %-8s t%-2d %s -> %s\n", s.Phase, s.Thread, s.From, s.To)
		}
	}
}
