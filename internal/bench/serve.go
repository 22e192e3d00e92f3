package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// The serve experiment measures the sharded allocation front-end
// (internal/serve) under real goroutine concurrency: N clients
// churning allocations against M engaged NUMA-node shards. Unlike
// every other experiment here, its subject is host concurrency
// itself, so it is *not* routed through the deterministic
// scatter/gather runner and its throughput is wall-clock dependent;
// this package only counts operations and audits correctness — the
// cmd layer times the run, keeping wall-clock reads out of internal
// packages.

// ServeSpec sizes one serve-scaling cell.
type ServeSpec struct {
	Name    string // scenario label, e.g. "1_node_16_clients"
	Nodes   int    // NUMA nodes engaged (clients pin to their cores)
	Clients int    // total clients, spread round-robin over the nodes
	Ops     int    // churn operations per client
}

// ServeCellResult is one cell's outcome: deterministic operation
// counts plus the server's (timing-dependent) serving diagnostics.
type ServeCellResult struct {
	Spec ServeSpec
	// Ops counts completed client operations (allocations and frees,
	// including the final drain). As long as the machine never hits
	// global exhaustion it depends only on the spec, not on
	// scheduling; once ErrNoMemory fires, which client absorbs it is
	// interleaving-dependent and the drain size can vary.
	Ops uint64
	// Retries counts ErrBusy rejections the clients absorbed —
	// backpressure observed, work shed and retried.
	Retries uint64
	Stats   serve.Stats
}

// churnAllocator is the client surface the churn driver needs; both
// the in-process serve.Client and the socket-backed wire.Client
// satisfy it, so serve and wire-path cells run the identical
// workload.
type churnAllocator interface {
	Alloc() (phys.Frame, error)
	Free(phys.Frame) error
}

// serveChurn drives one client: mostly allocations with enough frees
// to keep the live set bounded, absorbing backpressure and
// exhaustion. Returns completed operations.
func serveChurn(c churnAllocator, ops int, seed int64) (completed, retries uint64, err error) {
	rng := rand.New(rand.NewSource(seed))
	var owned []phys.Frame
	for op := 0; op < ops; {
		if len(owned) > 0 && rng.Intn(10) < 4 {
			j := rng.Intn(len(owned))
			if err := c.Free(owned[j]); err != nil {
				return completed, retries, err
			}
			owned[j] = owned[len(owned)-1]
			owned = owned[:len(owned)-1]
			completed++
			op++
			continue
		}
		f, allocErr := c.Alloc()
		switch {
		case errors.Is(allocErr, serve.ErrBusy):
			retries++
			runtime.Gosched()
			continue // retry without consuming the op budget
		case errors.Is(allocErr, serve.ErrNoMemory):
			if len(owned) == 0 {
				return completed, retries, allocErr
			}
			if err := c.Free(owned[len(owned)-1]); err != nil {
				return completed, retries, err
			}
			owned = owned[:len(owned)-1]
			completed++
			op++
			continue
		case allocErr != nil:
			return completed, retries, allocErr
		}
		owned = append(owned, f)
		completed++
		op++
	}
	for _, f := range owned {
		if err := c.Free(f); err != nil {
			return completed, retries, err
		}
		completed++
	}
	return completed, retries, nil
}

// RunServeCell boots a fresh server over the standard platform, pins
// spec.Clients colored clients round-robin to the cores of the first
// spec.Nodes NUMA nodes under a MEM+LLC plan, churns them
// concurrently, drains, and audits the final state with the
// cross-shard checker. The returned Ops count is spec-determined
// short of machine-wide exhaustion; the
// serving diagnostics (batches, retries) are not — they describe the
// actual interleaving.
func RunServeCell(spec ServeSpec, memBytes uint64, cfg serve.Config) (*ServeCellResult, error) {
	if spec.Nodes < 1 || spec.Clients < 1 || spec.Ops < 1 {
		return nil, fmt.Errorf("serve: bad spec %+v", spec)
	}
	topo := topology.Opteron6128()
	if spec.Nodes > topo.Nodes() {
		return nil, fmt.Errorf("serve: %d nodes exceed the platform's %d", spec.Nodes, topo.Nodes())
	}
	m, err := phys.DefaultSeparable(memBytes, topo.Nodes())
	if err != nil {
		return nil, err
	}
	s, err := serve.New(topo, m, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// Pin clients round-robin over the engaged nodes' cores; the
	// plan hands every client a private slice of those nodes' colors.
	cores := make([]topology.CoreID, spec.Clients)
	for i := range cores {
		node := topology.NodeID(i % spec.Nodes)
		nodeCores := topo.CoresOfNode(node)
		cores[i] = nodeCores[(i/spec.Nodes)%len(nodeCores)]
	}
	asn, err := policy.Plan(policy.MEMLLC, m, topo, cores)
	if err != nil {
		return nil, err
	}
	clients := make([]*serve.Client, spec.Clients)
	for i, core := range cores {
		c, err := s.NewClient(core)
		if err != nil {
			return nil, err
		}
		if err := c.SetColors(asn[i].BankColors, asn[i].LLCColors); err != nil {
			return nil, err
		}
		clients[i] = c
	}

	var wg sync.WaitGroup
	completed := make([]uint64, spec.Clients)
	retries := make([]uint64, spec.Clients)
	errs := make([]error, spec.Clients)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			completed[i], retries[i], errs[i] = serveChurn(c, spec.Ops, int64(i)+1)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: client %d: %w", i, err)
		}
	}

	r := invariant.AuditServer(s)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Mapped != 0 || r.Loans != 0 || r.Unaccounted != 0 {
		return nil, fmt.Errorf("serve: dirty state after drain: %d outstanding, %d loans, %d unaccounted",
			r.Mapped, r.Loans, r.Unaccounted)
	}

	res := &ServeCellResult{Spec: spec, Stats: s.Stats()}
	for i := range completed {
		res.Ops += completed[i]
		res.Retries += retries[i]
	}
	return res, nil
}

// ServeScalingSpecs is the standard serve-scaling sweep: shard
// scaling at a fixed client count (does throughput rise as the same
// load spreads over more shards?) followed by a client sweep at full
// shard fan-out.
func ServeScalingSpecs(ops int) []ServeSpec {
	return []ServeSpec{
		{Name: "1_node_16_clients", Nodes: 1, Clients: 16, Ops: ops},
		{Name: "2_nodes_16_clients", Nodes: 2, Clients: 16, Ops: ops},
		{Name: "4_nodes_16_clients", Nodes: 4, Clients: 16, Ops: ops},
		{Name: "4_nodes_4_clients", Nodes: 4, Clients: 4, Ops: ops},
		{Name: "4_nodes_8_clients", Nodes: 4, Clients: 8, Ops: ops},
		{Name: "4_nodes_32_clients", Nodes: 4, Clients: 32, Ops: ops},
	}
}
