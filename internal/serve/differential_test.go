// Differential and concurrency tests for the serving layer. These
// live in an external test package so they can drive the server the
// way callers do — through policy plans and the invariant auditor,
// which itself imports serve — without an import cycle.
package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const diffMem = 64 << 20

// mapper builds a physical mapping for a machine of memBytes over
// nodes NUMA nodes.
type mapper func(memBytes uint64, nodes int) (*phys.Mapping, error)

// mappers are the mappings the differential and the hammers run
// under: the separable default, whose color matrix is full, and the
// Opteron's overlapped bits, whose matrix is sparse — only some
// (bank, LLC) pairs exist, so some of a claim's buckets never hold a
// frame.
var mappers = []struct {
	name string
	new  mapper
}{
	{"DefaultSeparable", phys.DefaultSeparable},
	{"OpteronOverlapped", phys.OpteronOverlapped},
}

// forEachMapper runs fn as one subtest per mapping.
func forEachMapper(t *testing.T, fn func(t *testing.T, newMapping mapper)) {
	for _, mp := range mappers {
		t.Run(mp.name, func(t *testing.T) { fn(t, mp.new) })
	}
}

func bootPair(t *testing.T, newMapping mapper) (*topology.Topology, *phys.Mapping) {
	t.Helper()
	top := topology.Opteron6128()
	m, err := newMapping(diffMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	return top, m
}

func auditServerClean(t *testing.T, s *serve.Server) *invariant.Report {
	t.Helper()
	r := invariant.AuditServer(s)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Unaccounted != 0 {
		t.Fatalf("%d unaccounted frames on the server", r.Unaccounted)
	}
	if r.BuddyFree+r.Parked+r.Mapped != r.Frames {
		t.Fatalf("frame accounting does not balance: free %d + parked %d + outstanding %d != %d",
			r.BuddyFree, r.Parked, r.Mapped, r.Frames)
	}
	return r
}

// TestDifferentialKernelVsServe drives the sequential kernel and the
// sharded server through the same MEM+LLC color plan — one principal
// per node, well under each claim's capacity — and proves both
// satisfy the same rules: the plan itself is disjoint, every
// allocation lands at preferred placement (no loans on either side),
// and both auditors come back clean, the server's via the cross-shard
// check 6. The server side allocates from one goroutine per client,
// so `go test -race` checks the interleaving the kernel never has.
func TestDifferentialKernelVsServe(t *testing.T) {
	forEachMapper(t, differentialKernelVsServe)
}

func differentialKernelVsServe(t *testing.T, newMapping mapper) {
	top, m := bootPair(t, newMapping)
	cores := []topology.CoreID{0, 4, 8, 12}
	const perTask = 300 // MEMLLC claim capacity here is 1024 frames each, under either mapping

	asn, err := policy.Plan(policy.MEMLLC, m, top, cores)
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckPlan(m, policy.MEMLLC, asn); err != nil {
		t.Fatal(err)
	}

	// Sequential reference: the kernel under the discrete-event
	// contract, one task per core, round-robin allocation.
	k, err := kernel.New(top, m, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proc := k.NewProcess()
	tasks := make([]*kernel.Task, len(cores))
	for i, core := range cores {
		task, err := proc.NewTask(core)
		if err != nil {
			t.Fatal(err)
		}
		if err := policy.Apply(task, asn[i]); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	for n := 0; n < perTask; n++ {
		for _, task := range tasks {
			if _, _, err := k.AllocPages(task, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	kr := invariant.Audit(k)
	if err := kr.Err(); err != nil {
		t.Fatal(err)
	}
	kst := k.Stats()
	var kDegraded uint64
	for _, d := range kst.DegradedAllocs {
		kDegraded += d
	}
	if kst.ColoredPages != uint64(perTask*len(cores)) || kDegraded != 0 {
		t.Fatalf("kernel stats = %+v, want %d colored and no degradation", kst, perTask*len(cores))
	}

	// Concurrent subject: the same plan on the sharded server, all
	// clients allocating at once.
	fresh, err := newMapping(diffMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(top, fresh, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clients := make([]*serve.Client, len(cores))
	for i, core := range cores {
		c, err := s.NewClient(core)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetColors(asn[i].BankColors, asn[i].LLCColors); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			for n := 0; n < perTask; n++ {
				if _, err := c.Alloc(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	sr := auditServerClean(t, s)
	if sr.Mapped != uint64(perTask*len(cores)) {
		t.Fatalf("server outstanding = %d, want %d", sr.Mapped, perTask*len(cores))
	}
	// Same rule as the kernel run: within claim capacity, concurrency
	// must not push anyone below preferred placement.
	sst := s.Stats()
	if sst.ColoredPages != uint64(perTask*len(cores)) || sst.DegradedAllocs() != 0 {
		t.Fatalf("server stats = %+v, want %d colored and no degradation", sst, perTask*len(cores))
	}
	if sr.Loans != 0 || kr.Loans != 0 {
		t.Fatalf("loans under capacity: kernel %d, server %d", kr.Loans, sr.Loans)
	}
}

// hammer churns the server from every core at once: colored clients
// under a 16-way MEM+LLC plan plus allocation/free churn, tolerating
// backpressure, then a full drain and audit. With narrow set, each
// colored client claims one bank and one LLC color of its share, so
// churn keeps the borrow ladder and its loan marks busy. Run under
// -race in CI.
func hammer(t *testing.T, newMapping mapper, cfg serve.Config, opsPerClient int, narrow bool) {
	t.Helper()
	top, m := bootPair(t, newMapping)
	cores := make([]topology.CoreID, top.Cores())
	for i := range cores {
		cores[i] = topology.CoreID(i)
	}
	asn, err := policy.Plan(policy.MEMLLC, m, top, cores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, len(cores))
	for i := range cores {
		c, err := s.NewClient(cores[i])
		if err != nil {
			t.Fatal(err)
		}
		// Half the clients take the plan's colors, half stay
		// uncolored, so colored, default and ladder paths all run
		// concurrently.
		if i%2 == 0 {
			bank, llc := asn[i].BankColors, asn[i].LLCColors
			if narrow {
				bank, llc = bank[:1], llc[:1]
			}
			if err := c.SetColors(bank, llc); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			errs[i] = churn(c, rand.New(rand.NewSource(int64(i)+1)), opsPerClient)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if narrow && s.Stats().DegradedAllocs() == 0 {
		t.Fatal("narrow claims never reached the borrow ladder")
	}

	r := auditServerClean(t, s)
	if r.Mapped != 0 {
		t.Fatalf("%d frames still outstanding after full drain", r.Mapped)
	}
	if r.Loans != 0 {
		t.Fatalf("%d loans outstanding after full drain", r.Loans)
	}
}

func TestHammerDefaults(t *testing.T) {
	forEachMapper(t, func(t *testing.T, newMapping mapper) {
		hammer(t, newMapping, serve.Config{}, 400, false)
	})
}

// Colored clients that claim one bank and one LLC color overflow the
// claim at once, so the clients' churn races loan marks being set and
// settled on the ladder's frames.
func TestHammerNarrowClaims(t *testing.T) {
	forEachMapper(t, func(t *testing.T, newMapping mapper) {
		hammer(t, newMapping, serve.Config{}, 400, true)
	})
}

// A high-water mark of two concurrent misses per shard must keep the
// same invariants. Misses are rare and short
// here, so ErrBusy seldom fires; TestBackpressureConcurrentMisses
// drives it deterministically.
func TestHammerTinyQueues(t *testing.T) {
	forEachMapper(t, func(t *testing.T, newMapping mapper) {
		hammer(t, newMapping, serve.Config{HighWater: 2}, 250, false)
	})
}

// churn runs ops random allocations (70%) and frees (30%) on c, then
// frees what it holds. Backpressure sheds the operation; machine-wide
// exhaustion releases a frame and keeps going.
func churn(c *serve.Client, rng *rand.Rand, ops int) error {
	var owned []phys.Frame
	for op := 0; op < ops; op++ {
		if len(owned) > 0 && rng.Intn(10) < 3 {
			j := rng.Intn(len(owned))
			if err := c.Free(owned[j]); err != nil {
				return err
			}
			owned[j] = owned[len(owned)-1]
			owned = owned[:len(owned)-1]
			continue
		}
		f, err := c.Alloc()
		switch {
		case errors.Is(err, serve.ErrBusy):
			runtime.Gosched() // backpressure: shed and retry later
			continue
		case errors.Is(err, serve.ErrNoMemory):
			if len(owned) == 0 {
				continue
			}
			if err := c.Free(owned[len(owned)-1]); err != nil {
				return err
			}
			owned = owned[:len(owned)-1]
			continue
		case err != nil:
			return err
		}
		owned = append(owned, f)
	}
	for _, f := range owned {
		if err := c.Free(f); err != nil {
			return err
		}
	}
	return nil
}

// step is one allocation of a ladder walk: the rung it was served at
// (RungNone for preferred placement) and the node its frame lives on.
type step struct {
	rung kernel.Rung
	node int
}

// summary run-length encodes a walk, e.g. "none@1 ×256, remote@2 ×4096".
func summary(walk []step) string {
	var b strings.Builder
	for i := 0; i < len(walk); {
		j := i
		for j < len(walk) && walk[j] == walk[i] {
			j++
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v@%d ×%d", walk[i].rung, walk[i].node, j-i)
		i = j
	}
	return b.String()
}

// kernelWalk allocates order-0 frames for task until the machine is
// dry, reading each frame's rung from the Stats.DegradedAllocs delta.
func kernelWalk(t *testing.T, k *kernel.Kernel, task *kernel.Task) ([]step, []phys.Frame) {
	t.Helper()
	var walk []step
	var frames []phys.Frame
	for {
		before := k.Stats().DegradedAllocs
		f, _, err := k.AllocPages(task, 0)
		if errors.Is(err, kernel.ErrNoMemory) {
			return walk, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		s := step{kernel.RungNone, k.Mapping().NodeOfFrame(f)}
		for r, n := range k.Stats().DegradedAllocs {
			if n != before[r] {
				s.rung = kernel.Rung(r)
			}
		}
		walk, frames = append(walk, s), append(frames, f)
	}
}

// serveWalk allocates frames for c until the machine is dry, reading
// each frame's rung from its loan mark.
func serveWalk(t *testing.T, s *serve.Server, m *phys.Mapping, c *serve.Client) ([]step, []phys.Frame) {
	t.Helper()
	var walk []step
	var frames []phys.Frame
	for {
		f, err := c.Alloc()
		if errors.Is(err, serve.ErrNoMemory) {
			return walk, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		walk, frames = append(walk, step{s.LoanRung(f), m.NodeOfFrame(f)}), append(frames, f)
	}
}

// TestLadderKernelVsServe pins the one order of the degradation
// ladder (kernel.Ladder) on both sides. A kernel task and a serve
// client with the same claim — 8 bank colors of one node × LLC colors
// 0–7 — each allocate on a fresh machine until it is dry, and must
// take the same (rung, node) at every allocation; after everything is
// freed, an uncolored claim on the same core drains the machine again,
// the same way on both sides. A claim on node 1 from a core of node 0
// routes serve's misses to shard 1, but both ladders start on node 0.
// Frames are not compared: the borrow-color rung scans LLC colors from
// the task's cursor in the kernel and from 0 in serve. The walks
// themselves are pinned too; both mappings give the same ones.
func TestLadderKernelVsServe(t *testing.T) {
	forEachMapper(t, func(t *testing.T, newMapping mapper) {
		for _, tc := range []struct {
			name      string
			claimNode int
			colored   string // the colored walk
			uncolored string // the uncolored walk after it
		}{
			{"home-claim", 0,
				"none@0 ×256, borrow-color@0 ×3072, remote@1 ×4096, remote@2 ×4096, remote@3 ×4096, remote@0 ×768",
				"none@1 ×4096, none@2 ×4096, none@3 ×4096, borrow-color@0 ×4096"},
			{"remote-claim", 1,
				"none@1 ×256, local-uncolored@0 ×4096, remote@1 ×3840, remote@2 ×4096, remote@3 ×4096",
				"none@0 ×4096, none@2 ×4096, none@3 ×4096, remote@1 ×4096"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				ladderKernelVsServe(t, newMapping, tc.claimNode, tc.colored, tc.uncolored)
			})
		}
	})
}

func ladderKernelVsServe(t *testing.T, newMapping mapper, claimNode int, wantColored, wantUncolored string) {
	const core = 0
	top, km := bootPair(t, newMapping)
	sm, err := newMapping(diffMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	claim := policy.Assignment{BankColors: km.BankColorsOfNode(claimNode)[:8], LLCColors: []int{0, 1, 2, 3, 4, 5, 6, 7}}

	k, err := kernel.New(top, km, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proc := k.NewProcess()
	task, err := proc.NewTask(core)
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.Apply(task, claim); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(top, sm, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.NewClient(core)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(claim.BankColors, claim.LLCColors); err != nil {
		t.Fatal(err)
	}

	compare := func(what string, kw, sw []step, want string) {
		t.Helper()
		if uint64(len(kw)) != km.Frames() {
			t.Errorf("%s: kernel walk took %d frames of %d", what, len(kw), km.Frames())
		}
		if !slices.Equal(kw, sw) {
			t.Errorf("%s walks differ:\nkernel: %s\nserve:  %s", what, summary(kw), summary(sw))
		}
		if got := summary(kw); got != want {
			t.Errorf("%s walk = %s\nwant %s", what, got, want)
		}
	}
	kw, kf := kernelWalk(t, k, task)
	sw, sf := serveWalk(t, s, sm, c)
	compare("colored", kw, sw, wantColored)

	for _, f := range kf {
		if err := k.FreePages(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range sf {
		if err := c.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	utask, err := proc.NewTask(core)
	if err != nil {
		t.Fatal(err)
	}
	uc, err := s.NewClient(core)
	if err != nil {
		t.Fatal(err)
	}
	kw, _ = kernelWalk(t, k, utask)
	sw, _ = serveWalk(t, s, sm, uc)
	compare("uncolored", kw, sw, wantUncolored)
}
