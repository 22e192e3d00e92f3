package cache

import "testing"

// Microbenchmarks for Cache.Access, the single hottest leaf of the
// simulation (three calls per memory op in the worst case). The
// single-set benchmarks time the record scan and shift with the set
// resident in the host cache; BenchmarkAccessRandomSets spreads lines
// over every L3 set, so it also pays the host cache misses that
// dominate a simulated run.

func benchCache(b *testing.B, cfg Config) *Cache {
	b.Helper()
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkAccessL1Hit(b *testing.B) {
	c := benchCache(b, DefaultL1())
	c.Access(0x1234, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1234, false)
	}
}

func BenchmarkAccessL3Hit(b *testing.B) {
	c := benchCache(b, DefaultL3())
	// Fill one set, then hit its ways round-robin.
	lines := make([]uint64, c.cfg.Ways)
	for i := range lines {
		lines[i] = uint64(i) << c.setShift // same set 0, distinct tags
		c.Access(lines[i], false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(lines[i%len(lines)], false)
	}
}

func BenchmarkAccessMissEvict(b *testing.B) {
	c := benchCache(b, DefaultL3())
	sets := uint64(c.Sets())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk distinct tags through one set per iteration: every
		// access past the warm-up misses and (once full) evicts.
		ln := uint64(i)%sets | uint64(i)<<c.setShift
		c.Access(ln, i&1 == 0)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := benchCache(b, DefaultL2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i), false) // sequential lines: all sets, steady misses
	}
}

// BenchmarkAccessRandomSets draws lines uniformly from twice the
// default L3's capacity, so accesses land on all 8,192 sets, about
// half of them hit, and a quarter are writes. An inline xorshift
// generates the lines, keeping the benchmark's own data out of the
// host cache.
func BenchmarkAccessRandomSets(b *testing.B) {
	c := benchCache(b, DefaultL3())
	span := uint64(2 * c.Sets() * c.cfg.Ways)
	x := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.Access(x%span, x&(3<<40) == 0)
	}
}
