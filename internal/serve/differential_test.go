// Differential and concurrency tests for the serving layer. These
// live in an external test package so they can drive the server the
// way callers do — through policy plans and the invariant auditor,
// which itself imports serve — without an import cycle.
package serve_test

import (
	"errors"
	"math/rand"
	"runtime"
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
