package bench

import (
	"fmt"
	"io"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// LatencyRow is one node's uncontended DRAM access latency as seen
// from a fixed core.
type LatencyRow struct {
	Node   int
	Hops   int
	Cycles float64 // mean cycles per cold cache-line access
}

// LatencyResult is the local/remote latency primer backing the
// paper's claim that "the latency of local memory controller accesses
// is much lower than that of remote memory controller accesses".
type LatencyResult struct {
	Core topology.CoreID
	Rows []LatencyRow
}

// RunLatency measures, from one core, the average cold-access latency
// to each memory node: fresh cache lines, no contention, so the
// difference is purely the controller distance. Nodes are measured as
// independent scatter/gather jobs, up to `workers` at a time.
func RunLatency(mach *Machine, core topology.CoreID, linesPerNode, workers int) (*LatencyResult, error) {
	if linesPerNode <= 0 {
		linesPerNode = 512
	}
	out := &LatencyResult{Core: core}
	rows, err := Gather(mach.Topo.Nodes(), workers, func(n int) (LatencyRow, error) {
		// Fresh memory system per node so caches are cold and no
		// cross-node state leaks.
		ms, err := mem.New(mach.Topo, mach.Mapping, mach.MemCfg)
		if err != nil {
			return LatencyRow{}, err
		}
		base, limit := mach.Mapping.NodeRange(n)
		var total uint64
		var t uint64
		for i := 0; i < linesPerNode; i++ {
			// Stride by page so every access opens a new row (worst
			// case, uniform across nodes).
			a := base + phys.Addr(uint64(i)*phys.PageSize)
			if a >= limit {
				break
			}
			done := ms.Access(core, a, false, clock.Time(t))
			total += uint64(done) - t
			t = uint64(done) + 1000 // idle gap: no queueing carryover
		}
		return LatencyRow{
			Node:   n,
			Hops:   mach.Topo.Hops(core, topology.NodeID(n)),
			Cycles: float64(total) / float64(linesPerNode),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// WriteTable prints the latency primer.
func (r *LatencyResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Local vs remote controller latency from core %d (cold lines)\n", r.Core)
	fmt.Fprintf(w, "%-6s %-6s %12s\n", "node", "hops", "cycles/line")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %-6d %12.1f\n", row.Node, row.Hops, row.Cycles)
	}
}
