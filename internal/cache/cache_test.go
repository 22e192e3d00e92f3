package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func small(t *testing.T, ways int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: uint64(ways) * 4 * 128, Ways: ways, LineShift: 7, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHitAfterInstall(t *testing.T) {
	c := small(t, 2)
	if r := c.Access(5, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(5, false); !r.Hit {
		t.Error("second access missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t, 2) // 4 sets, 2 ways
	// Three lines mapping to set 0: 0, 4, 8.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // touch 0: 4 becomes LRU
	r := c.Access(8, false)
	if r.Hit {
		t.Fatal("conflicting access hit")
	}
	if !r.EvictedValid || r.EvictedLine != 4 {
		t.Errorf("evicted %d (valid=%v), want line 4", r.EvictedLine, r.EvictedValid)
	}
	if !c.Contains(0) || c.Contains(4) || !c.Contains(8) {
		t.Error("LRU order violated")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := small(t, 2)
	c.Access(0, true) // write: dirty
	c.Access(4, false)
	r := c.Access(8, false) // evicts 0
	if !r.EvictedValid || r.EvictedLine != 0 || !r.EvictedDirty {
		t.Errorf("dirty eviction result = %+v", r)
	}
	// A read-only line evicts clean.
	c2 := small(t, 2)
	c2.Access(0, false)
	c2.Access(4, false)
	r2 := c2.Access(8, false)
	if r2.EvictedDirty {
		t.Error("clean line evicted dirty")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := small(t, 2)
	c.Access(0, false)
	c.Access(0, true) // hit-write marks dirty
	c.Access(4, false)
	r := c.Access(8, false)
	if !r.EvictedDirty {
		t.Error("write-hit did not mark line dirty")
	}
}

func TestSetMapping(t *testing.T) {
	c := small(t, 2) // 4 sets
	for ln := uint64(0); ln < 16; ln++ {
		if got, want := c.SetOf(ln), int(ln%4); got != want {
			t.Errorf("SetOf(%d) = %d, want %d", ln, got, want)
		}
	}
	// Lines in different sets never evict each other.
	c.Access(0, false)
	c.Access(1, false)
	c.Access(2, false)
	c.Access(3, false)
	for ln := uint64(0); ln < 4; ln++ {
		if !c.Contains(ln) {
			t.Errorf("line %d displaced by disjoint-set access", ln)
		}
	}
}

func TestFlush(t *testing.T) {
	c := small(t, 2)
	c.Access(0, true)
	c.Flush()
	if c.Contains(0) {
		t.Error("Flush left line resident")
	}
	if r := c.Access(0, false); r.Hit {
		t.Error("hit after flush")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 2, LineShift: 7},
		{SizeBytes: 1024, Ways: 0, LineShift: 7},
		{SizeBytes: 1000, Ways: 2, LineShift: 7},        // not divisible
		{SizeBytes: 3 * 2 * 128, Ways: 2, LineShift: 7}, // 3 sets: not pow2
		{SizeBytes: 1024, Ways: 2, LineShift: 64},       // line size overflows
		{SizeBytes: 1 << 20, Ways: 4, LineShift: 62},    // line*ways wraps to 0
		{SizeBytes: 1 << 20, Ways: 3, LineShift: 63},    // line*ways overflows
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(bad %d) succeeded", i)
		}
	}
}

func TestDefaultsGeometry(t *testing.T) {
	l3, err := New(DefaultL3())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l3.Sets(), 8192; got != want {
		t.Errorf("L3 sets = %d, want %d", got, want)
	}
	l1, err := New(DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l1.Sets(), 512; got != want {
		t.Errorf("L1 sets = %d, want %d", got, want)
	}
	l2, err := New(DefaultL2())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l2.Sets(), 512; got != want {
		t.Errorf("L2 sets = %d, want %d", got, want)
	}
	if !(l1.Latency() < l2.Latency() && l2.Latency() < l3.Latency()) {
		t.Error("default latencies not increasing down the hierarchy")
	}
}

// The LLC color property: two lines whose page-color bits (address
// bits 12-16) differ always land in different L3 sets.
func TestL3ColorBitsPartitionSets(t *testing.T) {
	l3, err := New(DefaultL3())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint32) bool {
		la, lb := uint64(a), uint64(b)
		colorA := (la << 7 >> 12) & 31 // line -> addr -> color bits
		colorB := (lb << 7 >> 12) & 31
		if colorA == colorB {
			return true // nothing to check
		}
		return l3.SetOf(la) != l3.SetOf(lb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than the associativity within one
// set never misses after warmup (LRU correctness).
func TestLRUNoThrashWithinAssociativity(t *testing.T) {
	c := small(t, 4) // 4 ways, 2 sets... size = 4 ways*4 sets
	// lines 0,4,8,12 all map to set 0 in a 4-set cache.
	lines := []uint64{0, 4, 8, 12}
	for _, ln := range lines {
		c.Access(ln, false)
	}
	before := c.Stats().Misses
	for round := 0; round < 10; round++ {
		for _, ln := range lines {
			c.Access(ln, false)
		}
	}
	if got := c.Stats().Misses; got != before {
		t.Errorf("misses grew from %d to %d on resident working set", before, got)
	}
}

func TestEvictedLineRoundTrip(t *testing.T) {
	// The evicted line number must reconstruct exactly.
	c := small(t, 1) // direct-mapped, 4 sets
	c.Access(0x123<<2|1, false)
	r := c.Access(0x456<<2|1, false) // same set 1
	if !r.EvictedValid || r.EvictedLine != 0x123<<2|1 {
		t.Errorf("EvictedLine = %#x, want %#x", r.EvictedLine, 0x123<<2|1)
	}
}

func TestResetStats(t *testing.T) {
	c := small(t, 2)
	c.Access(0, false)
	c.ResetStats()
	if st := c.Stats(); st.Accesses != 0 {
		t.Errorf("ResetStats left %+v", st)
	}
	if !c.Contains(0) {
		t.Error("ResetStats invalidated contents")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty HitRate != 0")
	}
	s = Stats{Accesses: 4, Hits: 1}
	if s.HitRate() != 0.25 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

// Reference-model check: for every associativity, the cache must
// agree, access for access, with a naive timestamp LRU simulation
// under random reads and writes: the whole Result, Contains on a
// random probe line, and the final counters. The 24-way case is a
// record longer than one host line; 3 and 12 are padded.
func TestAgainstReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 8, 12, 16, 24} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			checkAgainstReferenceLRU(t, ways)
		})
	}
}

func checkAgainstReferenceLRU(t *testing.T, ways int) {
	const sets = 8
	c, err := New(Config{Name: "ref", SizeBytes: uint64(sets * ways * 128), Ways: ways, LineShift: 7, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	type refLine struct {
		ln    uint64
		used  int // timestamp of last use
		dirty bool
	}
	ref := make([][]refLine, sets) // per set, unordered
	tick := 0
	var want Stats
	refAccess := func(ln uint64, write bool) Result {
		set := ln % sets
		tick++
		want.Accesses++
		for i := range ref[set] {
			if l := &ref[set][i]; l.ln == ln {
				l.used = tick
				l.dirty = l.dirty || write
				want.Hits++
				return Result{Hit: true}
			}
		}
		want.Misses++
		if len(ref[set]) < ways {
			ref[set] = append(ref[set], refLine{ln, tick, write})
			return Result{}
		}
		lru := 0
		for i := range ref[set] {
			if ref[set][i].used < ref[set][lru].used {
				lru = i
			}
		}
		v := ref[set][lru]
		ref[set][lru] = refLine{ln, tick, write}
		want.Evictions++
		return Result{EvictedLine: v.ln, EvictedValid: true, EvictedDirty: v.dirty}
	}
	refContains := func(ln uint64) bool {
		for _, l := range ref[ln%sets] {
			if l.ln == ln {
				return true
			}
		}
		return false
	}

	rng := rand.New(rand.NewSource(321))
	span := sets * ways * 4 // 4x capacity -> plenty of conflicts
	for i := 0; i < 50000; i++ {
		ln := uint64(rng.Intn(span))
		write := rng.Intn(3) == 0
		if got, want := c.Access(ln, write), refAccess(ln, write); got != want {
			t.Fatalf("access %d (line %d, write=%v): cache %+v, reference %+v", i, ln, write, got, want)
		}
		probe := uint64(rng.Intn(span))
		if got, want := c.Contains(probe), refContains(probe); got != want {
			t.Fatalf("after access %d: Contains(%d) = %v, reference %v", i, probe, got, want)
		}
	}
	if got := c.Stats(); got != want {
		t.Errorf("Stats = %+v, reference %+v", got, want)
	}
}

// The way word holds tag+1 in 31 bits, so in a one-set cache (where
// the tag is the whole line number) line 2^31-2 is the last one a
// cache can hold: it installs, stays dirty and evicts intact, while
// line 2^31-1 is never contained and panics on access.
func TestTagBound(t *testing.T) {
	c, err := New(Config{Name: "one-set", SizeBytes: 2 * 128, Ways: 2, LineShift: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 1 {
		t.Fatalf("Sets = %d, want 1", c.Sets())
	}
	const last = 1<<31 - 2
	if r := c.Access(last, true); r.Hit || r.EvictedValid {
		t.Fatalf("cold access to the last line: %+v", r)
	}
	if !c.Contains(last) {
		t.Fatal("last representable line not contained after install")
	}
	c.Access(0, false)
	r := c.Access(1, false)
	if want := (Result{EvictedLine: last, EvictedValid: true, EvictedDirty: true}); r != want {
		t.Errorf("evicting the last line: %+v, want %+v", r, want)
	}
	if c.Contains(last + 1) {
		t.Error("Contains(2^31-1) = true, want false")
	}
	defer func() {
		if recover() == nil {
			t.Error("Access(2^31-1) did not panic")
		}
	}()
	c.Access(last+1, false)
}
