// policycompare: run one workload under every coloring policy the
// paper evaluates (buddy, BPM, LLC, MEM, MEM+LLC and the two partial
// variants) and print a comparison table with the memory-system
// evidence (remote access fraction, L3 miss rate).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	tintmalloc "github.com/tintmalloc/tintmalloc"
)

func main() {
	name := flag.String("workload", "equake", "workload to run (see WorkloadNames)")
	scale := flag.Float64("scale", 0.5, "working-set scale")
	flag.Parse()

	policies := []tintmalloc.Policy{
		tintmalloc.PolicyBuddy,
		tintmalloc.PolicyBPM,
		tintmalloc.PolicyLLC,
		tintmalloc.PolicyMEM,
		tintmalloc.PolicyMEMLLC,
		tintmalloc.PolicyMEMLLCPart,
		tintmalloc.PolicyLLCMEMPart,
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "policy\truntime\tidle\tremote DRAM\tL3 miss\n")
	var base float64
	for _, pol := range policies {
		sys, err := tintmalloc.NewSystem(tintmalloc.Config{AgedZones: true, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		for c := 0; c < sys.Topology().Cores(); c++ {
			if _, err := sys.AddThread(tintmalloc.CoreID(c)); err != nil {
				log.Fatal(err)
			}
		}
		if err := sys.ApplyPolicy(pol); err != nil {
			log.Fatal(err)
		}
		phases, err := sys.BuildWorkload(*name, tintmalloc.WorkloadParams{Seed: 3, Scale: *scale})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(phases)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = float64(res.Runtime)
		}
		remote := sys.Mem().TotalStats().RemoteFrac()
		l3 := sys.Mem().L3Stats()
		fmt.Fprintf(w, "%s\t%.3f\t%d\t%.1f%%\t%.1f%%\n",
			pol, float64(res.Runtime)/base, res.TotalIdle,
			remote*100, (1-l3.HitRate())*100)
	}
	w.Flush()
}
