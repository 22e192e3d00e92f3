// Package cache models set-associative write-back caches with LRU
// replacement: per-core private L1/L2 and the shared last-level L3 of
// the paper's platform (Sec. II-A).
//
// The L3's set index covers physical-address bits [LineShift,
// LineShift+log2(sets)); with 128-byte lines and 8192 sets that spans
// bits 7-19 and therefore contains the page-color bits 12-16. Threads
// holding disjoint LLC colors consequently occupy disjoint L3 sets —
// the isolation mechanism TintMalloc's LLC coloring relies on.
//
// Caches are not safe for concurrent use; the discrete-event engine
// serializes all accesses.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/tintmalloc/tintmalloc/internal/clock"
)

// Config describes one cache level.
type Config struct {
	Name      string    // for diagnostics ("L1d", "L2", "L3")
	SizeBytes uint64    // total capacity
	Ways      int       // associativity
	LineShift uint      // log2 line size
	Latency   clock.Dur // hit latency in cycles
}

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64 // valid lines displaced
}

// HitRate returns Hits/Accesses, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Result reports the outcome of one access.
type Result struct {
	Hit          bool
	EvictedLine  uint64 // full line number of the displaced victim
	EvictedValid bool
	EvictedDirty bool
}

// Cache is a single set-associative level.
//
// Each set is one contiguous record of way words in recency order,
// most recently used first. A word is dirty<<31 | (tag+1), so the
// zero word is an invalid way and the zero-valued array is the empty
// cache: New performs no fill pass, and per-core L1/L2 construction
// is one allocation. Tags are line numbers right-shifted by the set
// count. The tag field holds 31 bits, so Access panics at the first
// tag of 2^31-1, which with 128-byte lines and one set bounds the
// modeled physical address space at 256 GB (each doubling of the set
// count doubles it).
//
// A hit moves its word to the front, shifting the ways ahead of it
// down one slot. A miss evicts the last word and shifts the rest
// down. Invalid words therefore always sit at the tail, so they fill
// before any valid way is evicted, and the tail is exactly the LRU
// way. A record is padded to a power-of-two word count while that
// stays within 64 bytes (Ways <= 16), so a set is one host cache
// line at the default 12-way L3. The cost of a lookup is the host
// lines it touches, not the words it moves.
type Cache struct {
	cfg      Config
	setShift uint // log2(sets)
	setMask  uint64
	ways     int
	stride   int      // words per record: ways, padded as above
	words    []uint32 // words[set*stride : set*stride+ways] hold one set
	stats    Stats
}

// dirtyBit marks a way word dirty; the low 31 bits hold tag+1.
const dirtyBit = 1 << 31

// tagLimit is the first tag a way word cannot hold.
const tagLimit = dirtyBit - 1

// New validates cfg and builds the cache. sets = size/(line*ways)
// must be a power of two.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes == 0 || cfg.Ways < 1 {
		return nil, fmt.Errorf("cache %s: size and ways must be positive", cfg.Name)
	}
	// From a shift of 64 on, 1<<LineShift is 0, so every overflow
	// shows as a high word or a zero product.
	hi, setBytes := bits.Mul64(uint64(1)<<cfg.LineShift, uint64(cfg.Ways))
	if hi != 0 || setBytes == 0 {
		return nil, fmt.Errorf("cache %s: line size 2^%d times %d ways overflows 64 bits",
			cfg.Name, cfg.LineShift, cfg.Ways)
	}
	if cfg.SizeBytes%setBytes != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by line*ways", cfg.Name, cfg.SizeBytes)
	}
	sets := cfg.SizeBytes / setBytes
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	stride := cfg.Ways
	if cfg.Ways <= 16 {
		stride = 1 << bits.Len(uint(cfg.Ways-1))
	}
	return &Cache{
		cfg:      cfg,
		setShift: uint(bits.TrailingZeros64(sets)),
		setMask:  sets - 1,
		ways:     cfg.Ways,
		stride:   stride,
		words:    make([]uint32, sets*uint64(stride)),
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask + 1) }

// Latency returns the hit latency.
func (c *Cache) Latency() clock.Dur { return c.cfg.Latency }

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// SetOf returns the set index of a line number (addr >> LineShift).
func (c *Cache) SetOf(ln uint64) int { return int(ln & c.setMask) }

// Access looks up line ln (an address right-shifted by LineShift),
// installing it on a miss. write marks the line dirty.
func (c *Cache) Access(ln uint64, write bool) Result {
	c.stats.Accesses++
	set := ln & c.setMask
	tag := ln >> c.setShift
	if tag >= tagLimit {
		panic(fmt.Sprintf("cache %s: line %#x tag exceeds 31 bits", c.cfg.Name, ln))
	}
	want := uint32(tag) + 1
	base := int(set) * c.stride
	rec := c.words[base : base+c.ways : base+c.ways]

	var d uint32
	if write {
		d = dirtyBit
	}
	// Find the line's way; on a miss, stop at the LRU way, the tail.
	i := 0
	for i < len(rec)-1 && rec[i]&^dirtyBit != want {
		i++
	}
	w := rec[i]
	for j := i; j > 0; j-- {
		rec[j] = rec[j-1]
	}
	if w&^dirtyBit == want {
		rec[0] = w | d // keep any prior dirty bit
		c.stats.Hits++
		return Result{Hit: true}
	}
	rec[0] = want | d
	if w == 0 {
		return Result{}
	}
	c.stats.Evictions++
	return Result{
		EvictedValid: true,
		EvictedDirty: w&dirtyBit != 0,
		EvictedLine:  uint64(w&^dirtyBit-1)<<c.setShift | set,
	}
}

// Contains reports (without LRU side effects) whether ln is cached.
func (c *Cache) Contains(ln uint64) bool {
	set := ln & c.setMask
	tag := ln >> c.setShift
	if tag >= tagLimit {
		return false
	}
	base := int(set) * c.stride
	for _, w := range c.words[base : base+c.ways] {
		if w&^dirtyBit == uint32(tag)+1 {
			return true
		}
	}
	return false
}

// Flush invalidates every line (dirty contents are discarded; victim
// write-back on flush is not modeled).
func (c *Cache) Flush() { clear(c.words) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Misses = s.Accesses - s.Hits
	return s
}

// ResetStats zeroes the counters without invalidating contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Opteron-like default level configurations (paper Sec. IV: 128 KB
// L1, 512 KB private L2, 12 MB shared L3, 128-byte lines).

// DefaultL1 returns the per-core L1 data cache configuration.
func DefaultL1() Config {
	return Config{Name: "L1d", SizeBytes: 128 << 10, Ways: 2, LineShift: 7, Latency: 3}
}

// DefaultL2 returns the per-core unified L2 configuration.
func DefaultL2() Config {
	return Config{Name: "L2", SizeBytes: 512 << 10, Ways: 8, LineShift: 7, Latency: 15}
}

// DefaultL3 returns the shared last-level cache configuration: 12 MB,
// 12-way, 8192 sets, so the set index spans address bits 7-19 and
// includes the LLC color bits 12-16.
func DefaultL3() Config {
	return Config{Name: "L3", SizeBytes: 12 << 20, Ways: 12, LineShift: 7, Latency: 40}
}
