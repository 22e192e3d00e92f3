package kernel

import (
	"math/rand"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Microbenchmarks for Task.Translate, called once per memory op. The
// simulated TLB turns the resident-page common case into one array
// probe; BenchmarkWalkSweepRadix measures the page-table walk behind a
// TLB miss.

func benchBoot(b *testing.B, cfg Config) *Kernel {
	b.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	k, err := New(top, m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func benchResidentTask(b *testing.B, cfg Config, pages uint64) (*Task, uint64) {
	b.Helper()
	k := benchBoot(b, cfg)
	task, err := k.NewProcess().NewTask(0)
	if err != nil {
		b.Fatal(err)
	}
	va, err := task.Mmap(0, pages*phys.PageSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Fault everything in so the benchmark loop sees resident pages.
	for p := uint64(0); p < pages; p++ {
		if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	return task, va
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	task, va := benchResidentTask(b, DefaultConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := task.Translate(va); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateResidentSweep(b *testing.B) {
	// Sweep more pages than TLB slots modulo-map to one index:
	// exercises hits and conflict misses in workload-like proportion.
	const pages = 4 * TLBEntries
	task, va := benchResidentTask(b, DefaultConfig(), pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) % pages * phys.PageSize
		if _, _, err := task.Translate(va + off); err != nil {
			b.Fatal(err)
		}
	}
}

// The page table measured two ways: the bare structure under a
// resident-page lookup sweep, and the full Translate path when every
// op walks it. Both sweeps span more pages than fit one radix leaf so
// the root level is exercised too.
func BenchmarkPTLookupRadix(b *testing.B) {
	const pages = 4 * ptLeafSize
	var r RadixPT
	for vp := uint64(0); vp < pages; vp++ {
		r.Insert(vaBase>>phys.PageShift+vp, phys.Frame(vp))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp := vaBase>>phys.PageShift + uint64(i)%pages
		if _, ok := r.Lookup(vp); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkWalkSweepRadix sweeps 2,048 resident pages in order. The
// direct-mapped TLB has 1,024 entries, so each page's slot was taken
// by the page 1,024 before it: every access misses and walks the page
// table.
func BenchmarkWalkSweepRadix(b *testing.B) {
	const pages = 4 * ptLeafSize
	task, va := benchResidentTask(b, DefaultConfig(), pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) % pages * phys.PageSize
		if _, _, err := task.Translate(va + off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMunmapChurn is the heap's steady state under garbage-style
// churn: 1,024 live 2-page regions, and each op unmaps a random one,
// maps a replacement and touches both its pages. Munmap finds its
// region by binary search and retires it as a tombstone, compacted
// once half the index is dead, so neither it nor the index allocates.
// The one allocation left is a fresh page-table leaf per 2 MiB of new
// virtual address space (every 256 ops), which rounds to 0 allocs/op
// at any real b.N; a -benchtime=1x run reports it whole.
func BenchmarkMunmapChurn(b *testing.B) {
	const live, pages = 1024, 2
	task, err := benchBoot(b, DefaultConfig()).NewProcess().NewTask(0)
	if err != nil {
		b.Fatal(err)
	}
	mapTouched := func() uint64 {
		va, err := task.Mmap(0, pages*phys.PageSize, 0)
		if err != nil {
			b.Fatal(err)
		}
		for p := uint64(0); p < pages; p++ {
			if _, _, err := task.Translate(va + p*phys.PageSize); err != nil {
				b.Fatal(err)
			}
		}
		return va
	}
	bases := make([]uint64, live)
	for i := range bases {
		bases[i] = mapTouched()
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(live)
		if err := task.Munmap(bases[j], pages*phys.PageSize); err != nil {
			b.Fatal(err)
		}
		bases[j] = mapTouched()
	}
}
