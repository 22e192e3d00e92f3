package tintmalloc

import (
	"testing"
)

func newSys(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Config{MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	s := newSys(t)
	th, err := s.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetMemColor(0); err != nil {
		t.Fatal(err)
	}
	if err := th.SetLLCColor(0); err != nil {
		t.Fatal(err)
	}
	va, err := th.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Phase{Parallel("touch", []Work{
		func(yield func(Op) bool) {
			yield(Op{VA: va, Write: true})
		},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == 0 {
		t.Error("no simulated time elapsed")
	}
	f, ok := th.FrameOf(va)
	if !ok {
		t.Fatal("page not resident after run")
	}
	m := s.Mapping()
	if m.FrameBankColor(f) != 0 || m.FrameLLCColor(f) != 0 {
		t.Errorf("frame colors = %d/%d, want 0/0",
			m.FrameBankColor(f), m.FrameLLCColor(f))
	}
}

func TestApplyPolicyMEMLLC(t *testing.T) {
	s := newSys(t)
	var threads []*Thread
	for _, c := range []CoreID{0, 4, 8, 12} {
		th, err := s.AddThread(c)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	if err := s.ApplyPolicy(PolicyMEMLLC); err != nil {
		t.Fatal(err)
	}
	for i, th := range threads {
		if !th.Task().UsingBank() || !th.Task().UsingLLC() {
			t.Errorf("thread %d not fully colored", i)
		}
		for _, bc := range th.Task().BankColors() {
			if s.Mapping().NodeOfBankColor(bc) != int(s.Topology().NodeOfCore(th.Core())) {
				t.Errorf("thread %d owns non-local bank color %d", i, bc)
			}
		}
	}
}

func TestBuildWorkloadAndRun(t *testing.T) {
	s := newSys(t)
	for _, c := range []CoreID{0, 4} {
		if _, err := s.AddThread(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ApplyPolicy(PolicyMEMLLC); err != nil {
		t.Fatal(err)
	}
	phases, err := s.BuildWorkload("lbm", WorkloadParams{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(phases)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIdle == 0 && res.Runtime == 0 {
		t.Error("run produced no measurements")
	}
	if _, err := s.BuildWorkload("nope", WorkloadParams{}); err == nil {
		t.Error("BuildWorkload accepted junk name")
	}
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	// The paper's seven, the four ported x/benchmarks shapes, and the
	// adaptive engine's heteromix showcase.
	if len(names) != 12 {
		t.Errorf("WorkloadNames = %v", names)
	}
	for i, want := range []string{"synthetic", "lbm"} {
		if names[i] != want {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestAddThreadAfterRunRejected(t *testing.T) {
	s := newSys(t)
	if _, err := s.AddThread(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]Phase{Parallel("noop", []Work{
		func(yield func(Op) bool) { yield(Op{Compute: 1}) },
	})}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddThread(1); err == nil {
		t.Error("AddThread after Run succeeded")
	}
}

func TestRunWithoutThreads(t *testing.T) {
	s := newSys(t)
	if _, err := s.Run(nil); err == nil {
		t.Error("Run without threads succeeded")
	}
}

func TestMmapMunmapRoundTrip(t *testing.T) {
	s := newSys(t)
	th, err := s.AddThread(3)
	if err != nil {
		t.Fatal(err)
	}
	va, err := th.Mmap(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Munmap(va, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := th.Munmap(va, 1<<16); err == nil {
		t.Error("double munmap succeeded")
	}
}

func TestColorClearRoundTrip(t *testing.T) {
	s := newSys(t)
	th, err := s.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetMemColor(5); err != nil {
		t.Fatal(err)
	}
	if err := th.ClearMemColor(5); err != nil {
		t.Fatal(err)
	}
	if th.Task().UsingBank() {
		t.Error("bank coloring still active after clear")
	}
	if err := th.SetLLCColor(2); err != nil {
		t.Fatal(err)
	}
	if err := th.ClearLLCColor(2); err != nil {
		t.Fatal(err)
	}
	if th.Task().UsingLLC() {
		t.Error("LLC coloring still active after clear")
	}
}

func TestOverlappedConfig(t *testing.T) {
	s, err := NewSystem(Config{MemBytes: 256 << 20, Overlapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mapping().NumBankColors() != 128 {
		t.Errorf("overlapped bank colors = %d", s.Mapping().NumBankColors())
	}
}

func TestAgedZonesConfig(t *testing.T) {
	s, err := NewSystem(Config{MemBytes: 256 << 20, AgedZones: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	total := s.Mapping().Frames()
	if s.Kernel().FreeFrames() >= total {
		t.Error("aged zones left no holdout")
	}
}

func TestPublicTracer(t *testing.T) {
	s := newSys(t)
	th, err := s.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	s.SetTracer(func(e TraceEvent) { n++ })
	va, err := th.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]Phase{Parallel("t", []Work{
		func(yield func(Op) bool) {
			yield(Op{VA: va, Write: true})
			yield(Op{VA: va})
		},
	})}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("tracer saw %d events, want 2", n)
	}
}

func TestPublicLoopScheduling(t *testing.T) {
	s := newSys(t)
	for _, c := range []CoreID{0, 4} {
		if _, err := s.AddThread(c); err != nil {
			t.Fatal(err)
		}
	}
	executed := make([]int, 20)
	body := func(i int, yield func(Op) bool) bool {
		executed[i]++
		return yield(Op{Compute: 5})
	}
	if _, err := s.Run([]Phase{
		Parallel("static", StaticFor(10, 2, func(i int, y func(Op) bool) bool { return body(i, y) })),
		NoWaitParallel("dynamic", DynamicFor(10, 2, 2, func(i int, y func(Op) bool) bool { return body(i+10, y) })),
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range executed {
		if c != 1 {
			t.Errorf("iteration %d ran %d times", i, c)
		}
	}
}

// A public body that calls the heap between yields does it after a
// Sync, so each call runs at its thread's turn. Every Malloc here maps
// fresh pages from the process's one address bump pointer, so at the
// right turns each traced access lands above every earlier one.
func TestPublicSyncHeapCalls(t *testing.T) {
	s := newSys(t)
	var bodies []Work
	var heapErr error
	for i, c := range []CoreID{0, 4} {
		th, err := s.AddThread(c)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, func(yield func(Op) bool) {
			for k := 0; k < 8; k++ {
				if !yield(Sync()) {
					return
				}
				va, err := th.Malloc(4096)
				if err != nil {
					heapErr = err
					return
				}
				if !yield(Op{VA: va, Write: true, Compute: Dur(10 * (i + 1))}) {
					return
				}
			}
		})
	}
	var vas []uint64
	s.SetTracer(func(e TraceEvent) { vas = append(vas, e.VA) })
	if _, err := s.Run([]Phase{Parallel("alloc", bodies)}); err != nil {
		t.Fatal(err)
	}
	if heapErr != nil {
		t.Fatal(heapErr)
	}
	if len(vas) != 16 {
		t.Fatalf("tracer saw %d events, want 16", len(vas))
	}
	for i := 1; i < len(vas); i++ {
		if vas[i] <= vas[i-1] {
			t.Fatalf("access %d at %#x is below access %d at %#x: a Malloc ran ahead of its turn",
				i, vas[i], i-1, vas[i-1])
		}
	}
}

func TestPublicMigrate(t *testing.T) {
	s := newSys(t)
	th, err := s.AddThread(0)
	if err != nil {
		t.Fatal(err)
	}
	va, err := th.Mmap(8 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]Phase{Parallel("touch", []Work{
		func(yield func(Op) bool) {
			for i := uint64(0); i < 8; i++ {
				if !yield(Op{VA: va + i*4096, Write: true}) {
					return
				}
			}
		},
	})}); err != nil {
		t.Fatal(err)
	}
	if err := th.SetMemColor(2); err != nil {
		t.Fatal(err)
	}
	if err := th.SetLLCColor(3); err != nil {
		t.Fatal(err)
	}
	st, err := th.Migrate(va, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 8 {
		t.Errorf("Migrate scanned %d pages, want 8", st.Scanned)
	}
	m := s.Mapping()
	for i := uint64(0); i < 8; i++ {
		f, ok := th.FrameOf(va + i*4096)
		if !ok {
			t.Fatal("page lost")
		}
		if m.FrameBankColor(f) != 2 || m.FrameLLCColor(f) != 3 {
			t.Errorf("page %d not recolored: %d/%d", i, m.FrameBankColor(f), m.FrameLLCColor(f))
		}
	}
}

func TestCustomTopologyConfig(t *testing.T) {
	s, err := NewSystem(Config{
		MemBytes:       256 << 20,
		Sockets:        1,
		NodesPerSocket: 4,
		CoresPerNode:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology().Cores() != 8 || s.Topology().Nodes() != 4 {
		t.Errorf("custom topology = %v", s.Topology())
	}
	// Invalid custom topology is rejected.
	if _, err := NewSystem(Config{Sockets: -1, NodesPerSocket: 1, CoresPerNode: 1}); err == nil {
		t.Error("NewSystem accepted negative sockets")
	}
	// Memory not divisible by node count is rejected.
	if _, err := NewSystem(Config{MemBytes: (256 << 20) + 4096, Sockets: 1, NodesPerSocket: 3, CoresPerNode: 1}); err == nil {
		t.Error("NewSystem accepted indivisible memory size")
	}
}

func TestPlanPolicyWithoutApply(t *testing.T) {
	s := newSys(t)
	for _, c := range []CoreID{0, 4} {
		if _, err := s.AddThread(c); err != nil {
			t.Fatal(err)
		}
	}
	asn, err := s.PlanPolicy(PolicyMEMLLC)
	if err != nil {
		t.Fatal(err)
	}
	if len(asn) != 2 || len(asn[0].BankColors) == 0 {
		t.Errorf("PlanPolicy = %+v", asn)
	}
}

func TestHeapCallocReallocFreeViaThread(t *testing.T) {
	s := newSys(t)
	th, err := s.AddThread(2)
	if err != nil {
		t.Fatal(err)
	}
	va, err := th.Calloc(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := th.Realloc(va, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(va2); err != nil {
		t.Fatal(err)
	}
	if th.Heap().LiveAllocations() != 0 {
		t.Error("allocations leaked")
	}
	if th.Index() != 0 || th.Core() != 2 {
		t.Errorf("thread identity wrong: %d/%d", th.Index(), th.Core())
	}
}
