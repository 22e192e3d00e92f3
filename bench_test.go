// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. V). Each benchmark runs complete simulations and
// reports the papers' metrics via b.ReportMetric:
//
//	BenchmarkLatencyLocalVsRemote  – local/remote controller latency primer
//	BenchmarkFig10Synthetic        – synthetic sweep per policy
//	BenchmarkFig11Runtime          – suite runtime normalized to buddy
//	BenchmarkFig12Idle             – suite idle time normalized to buddy
//	BenchmarkFig13PerThread        – per-thread runtime spread
//	BenchmarkFig14PerThreadIdle    – per-thread idle spread
//	BenchmarkColoredAllocColdVsWarm– colored-list refill cost ablation
//	BenchmarkMappingAblation       – separable vs overlapped bit mapping
//	BenchmarkAgingAblation         – pristine vs aged buddy zones
//
// The benchmarks run at full paper scale (a few minutes for the whole
// suite). Simulated cycles (not wall time) are the quantities of
// interest — wall-clock ns/op only measures the simulator itself.
package tintmalloc_test

import (
	"fmt"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/suite"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

const benchScale = 1.0

func benchMachine(b *testing.B) *bench.Machine {
	b.Helper()
	mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: 2 << 30})
	if err != nil {
		b.Fatal(err)
	}
	return mach
}

func benchConfig(b *testing.B, mach *bench.Machine, name string) bench.Config {
	b.Helper()
	cfg, err := bench.ConfigByName(mach.Topo, name)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkLatencyLocalVsRemote reproduces the latency primer behind
// paper Figs. 1/7: cold-line access latency per controller distance.
func BenchmarkLatencyLocalVsRemote(b *testing.B) {
	mach := benchMachine(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.RunLatency(mach, 0, 256, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range r.Rows {
				b.ReportMetric(row.Cycles, fmt.Sprintf("cycles/line-node%d-%dhop", row.Node, row.Hops))
			}
		}
	}
}

// BenchmarkFig10Synthetic reproduces Fig. 10: synthetic alternating-
// stride execution time under the fig10 registry entry's policies
// (buddy/LLC/MEM/MEM+LLC coloring).
func BenchmarkFig10Synthetic(b *testing.B) {
	fig10, err := suite.Default().ByName("fig10")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range fig10.Policies {
		pol, err := policy.ParsePolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			mach := benchMachine(b)
			cfg := benchConfig(b, mach, "16_threads_4_nodes")
			var last bench.RunMetrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(mach, bench.RunSpec{
					Workload: workload.Synthetic(), Config: cfg, Policy: pol,
					Params: workload.Params{Seed: 1, Scale: benchScale},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.Runtime), "sim-cycles")
			b.ReportMetric(last.RowConflictFrac*100, "rowconf-%")
		})
	}
}

func suiteBenchmark(b *testing.B, metric func(bench.RunMetrics) float64, unit string) {
	mach := benchMachine(b)
	cfg := benchConfig(b, mach, "16_threads_4_nodes")
	for _, wl := range workload.StandardSuite() {
		for _, pol := range []policy.Policy{policy.Buddy, policy.BPM, policy.MEMLLC} {
			b.Run(wl.Name+"/"+pol.String(), func(b *testing.B) {
				var last bench.RunMetrics
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(mach, bench.RunSpec{
						Workload: wl, Config: cfg, Policy: pol,
						Params: workload.Params{Seed: 1, Scale: benchScale},
					})
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				b.ReportMetric(metric(last), unit)
			})
		}
	}
}

// BenchmarkFig11Runtime reproduces Fig. 11: benchmark runtime per
// policy at 16 threads / 4 nodes (compare sim-cycles across the
// buddy/BPM/MEM+LLC sub-benchmarks of each workload).
func BenchmarkFig11Runtime(b *testing.B) {
	suiteBenchmark(b, func(m bench.RunMetrics) float64 { return float64(m.Runtime) }, "sim-cycles")
}

// BenchmarkFig12Idle reproduces Fig. 12: total barrier idle time per
// policy.
func BenchmarkFig12Idle(b *testing.B) {
	suiteBenchmark(b, func(m bench.RunMetrics) float64 { return float64(m.TotalIdle) }, "sim-idle-cycles")
}

// BenchmarkFig13PerThread reproduces Fig. 13: the max-min spread of
// per-thread runtimes (the paper's balance measure) for lbm.
func BenchmarkFig13PerThread(b *testing.B) {
	mach := benchMachine(b)
	cfg := benchConfig(b, mach, "16_threads_4_nodes")
	for _, pol := range []policy.Policy{policy.Buddy, policy.BPM, policy.MEMLLC} {
		b.Run(pol.String(), func(b *testing.B) {
			var last bench.RunMetrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(mach, bench.RunSpec{
					Workload: workload.LBM(), Config: cfg, Policy: pol,
					Params: workload.Params{Seed: 1, Scale: benchScale},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(bench.Spread(last.ThreadRuntime)), "spread-cycles")
			b.ReportMetric(float64(bench.MaxOf(last.ThreadRuntime)), "max-thread-cycles")
		})
	}
}

// BenchmarkFig14PerThreadIdle reproduces Fig. 14: per-thread idle
// time under each policy for lbm.
func BenchmarkFig14PerThreadIdle(b *testing.B) {
	mach := benchMachine(b)
	cfg := benchConfig(b, mach, "16_threads_4_nodes")
	for _, pol := range []policy.Policy{policy.Buddy, policy.BPM, policy.MEMLLC} {
		b.Run(pol.String(), func(b *testing.B) {
			var last bench.RunMetrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(mach, bench.RunSpec{
					Workload: workload.LBM(), Config: cfg, Policy: pol,
					Params: workload.Params{Seed: 1, Scale: benchScale},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(bench.MaxOf(last.ThreadIdle)), "max-thread-idle-cycles")
			b.ReportMetric(float64(last.TotalIdle), "total-idle-cycles")
		})
	}
}

// BenchmarkColoredAllocColdVsWarm is the refill-cost ablation of
// paper Sec. III-C: the first colored faults traverse and shatter
// buddy blocks; once the color lists are populated the cost is flat.
func BenchmarkColoredAllocColdVsWarm(b *testing.B) {
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(512<<20, topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			var faultCycles uint64
			var pages int
			for i := 0; i < b.N; i++ {
				k, err := kernel.New(topo, m, kernel.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				task, err := k.NewProcess().NewTask(0)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range m.BankColorsOfNode(0)[:8] {
					if _, err := task.Mmap(uint64(c)|kernel.SetMemColor, 0, kernel.ColorAlloc); err != nil {
						b.Fatal(err)
					}
				}
				const n = 512
				va, err := task.Mmap(0, n*phys.PageSize, 0)
				if err != nil {
					b.Fatal(err)
				}
				if warm {
					// Pre-populate the color lists, then measure a
					// second region's faults.
					for p := uint64(0); p < n; p++ {
						if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
							b.Fatal(err)
						}
					}
					va2, err := task.Mmap(0, n*phys.PageSize, 0)
					if err != nil {
						b.Fatal(err)
					}
					if err := task.Munmap(va, n*phys.PageSize); err != nil {
						b.Fatal(err)
					}
					va = va2
				}
				for p := uint64(0); p < n; p++ {
					_, cost, err := task.Translate(va + p*phys.PageSize)
					if err != nil {
						b.Fatal(err)
					}
					faultCycles += uint64(cost)
					pages++
				}
			}
			b.ReportMetric(float64(faultCycles)/float64(pages), "sim-cycles/fault")
		})
	}
}

// BenchmarkMappingAblation compares the default separable bit mapping
// against the paper-faithful overlapped Opteron mapping (DESIGN.md
// ablation 1) on the synthetic benchmark under MEM+LLC coloring.
func BenchmarkMappingAblation(b *testing.B) {
	for _, overlapped := range []bool{false, true} {
		name := "separable"
		if overlapped {
			name = "overlapped"
		}
		b.Run(name, func(b *testing.B) {
			mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: 2 << 30, Overlapped: overlapped})
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchConfig(b, mach, "16_threads_4_nodes")
			var last bench.RunMetrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(mach, bench.RunSpec{
					Workload: workload.Synthetic(), Config: cfg, Policy: policy.MEMLLC,
					Params: workload.Params{Seed: 1, Scale: benchScale},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.Runtime), "sim-cycles")
		})
	}
}

// BenchmarkAgingAblation compares pristine against aged buddy zones
// (DESIGN.md ablation: fragmentation is what the buddy baseline's
// behaviour depends on).
func BenchmarkAgingAblation(b *testing.B) {
	for _, aged := range []bool{false, true} {
		name := "pristine"
		if aged {
			name = "aged"
		}
		b.Run(name, func(b *testing.B) {
			mach, err := bench.NewMachine(bench.MachineOptions{MemBytes: 2 << 30})
			if err != nil {
				b.Fatal(err)
			}
			if !aged {
				mach.KernCfg.ChurnSeed = 0
				mach.KernCfg.HoldoutFrac = 0
				mach.KernCfg.BuddyRemoteFrac = 0
			}
			cfg := benchConfig(b, mach, "16_threads_4_nodes")
			var last bench.RunMetrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(mach, bench.RunSpec{
					Workload: workload.LBM(), Config: cfg, Policy: policy.Buddy,
					Params: workload.Params{Seed: 1, Scale: benchScale},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.Runtime), "sim-cycles")
			b.ReportMetric(last.RowConflictFrac*100, "rowconf-%")
		})
	}
}
