package kernel

import (
	"fmt"
	"io"
)

// WriteReport prints a /proc-style snapshot of the kernel's memory
// state: per-zone free frames, colored-list occupancy (aggregated per
// bank color and per LLC color — the full 128x32 matrix is available
// from ColorListSnapshot), and the allocation counters.
func (k *Kernel) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "kernel memory report\n")
	fmt.Fprintf(w, "  frames total: %d (%d MiB)\n",
		k.mapping.Frames(), k.mapping.MemBytes()>>20)
	for n := range k.zones {
		fmt.Fprintf(w, "  zone %d: %8d free frames\n", n, k.zones[n].FreeFrames())
	}
	fmt.Fprintf(w, "  colored free pages: %d\n", k.colors.total)

	// Per-bank-color occupancy, grouped by node.
	per := k.mapping.BanksPerNode()
	for n := 0; n < k.mapping.Nodes(); n++ {
		var nodeTotal uint64
		for bc := n * per; bc < (n+1)*per; bc++ {
			for lc := 0; lc < k.colors.nLLC; lc++ {
				nodeTotal += uint64(len(k.colors.list(bc, lc)))
			}
		}
		if nodeTotal == 0 {
			continue
		}
		fmt.Fprintf(w, "  node %d colored pages: %d over %d bank colors\n", n, nodeTotal, per)
	}

	st := k.stats
	fmt.Fprintf(w, "  faults: %d (colored %d, buddy %d)\n",
		st.Faults, st.ColoredPages, st.BuddyPages)
	fmt.Fprintf(w, "  refills: %d (%d frames shattered)\n", st.Refills, st.RefillFrames)
	fmt.Fprintf(w, "  color mmaps: %d\n", st.ColorMmaps)
	fmt.Fprintf(w, "  tasks: %d across %d processes\n", k.nextTaskID, len(k.procs))
	for _, p := range k.procs {
		for _, t := range p.tasks {
			if !t.usingBank && !t.usingLLC {
				continue
			}
			fmt.Fprintf(w, "    task %d (core %d): bank colors %v, LLC colors %v\n",
				t.id, t.core, t.bankColors, t.llcColors)
		}
	}
}
