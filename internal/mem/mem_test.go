package mem

import (
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/cache"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 256 << 20

func newSystem(t *testing.T) *System {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(top, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCacheHierarchyLatencies(t *testing.T) {
	s := newSystem(t)
	cfg := DefaultConfig()
	a := phys.Addr(0x4000)

	// Cold: full DRAM round trip.
	d1 := s.Access(0, a, false, 0)
	coldLat := d1

	// Warm: L1 hit.
	t2 := d1 + 100
	d2 := s.Access(0, a, false, t2)
	if got, want := d2-t2, cfg.L1.Latency; got != want {
		t.Errorf("L1 hit latency = %d, want %d", got, want)
	}
	if coldLat <= cfg.L1.Latency+cfg.L2.Latency+cfg.L3.Latency {
		t.Errorf("cold latency %d suspiciously small", coldLat)
	}
	st := s.CoreStats(0)
	if st.Accesses != 2 || st.L1Hits != 1 || st.DRAMReads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestL3SharedAcrossCores(t *testing.T) {
	s := newSystem(t)
	a := phys.Addr(0x8000)
	d := s.Access(0, a, false, 0) // core 0 pulls line into L3
	// Core 1 misses L1/L2 but hits shared L3.
	t2 := d + 10
	d2 := s.Access(1, a, false, t2)
	cfg := DefaultConfig()
	want := cfg.L1.Latency + cfg.L2.Latency + cfg.L3.Latency
	if got := d2 - t2; got != want {
		t.Errorf("cross-core L3 hit latency = %d, want %d", got, want)
	}
	if st := s.CoreStats(1); st.L3Hits != 1 {
		t.Errorf("core 1 stats = %+v, want one L3 hit", st)
	}
}

func TestLocalFasterThanRemote(t *testing.T) {
	s := newSystem(t)
	m := s.Mapping()
	top := s.Topology()

	// Core 0 accessing its local node vs the farthest node,
	// uncached lines in both cases.
	local, _ := m.NodeRange(int(top.NodeOfCore(0)))
	remoteNode := 3 // 3 hops from core 0
	remote, _ := m.NodeRange(remoteNode)

	d1 := s.Access(0, local+0x100000, false, 0)
	s2 := d1 + 1000
	d2 := s.Access(0, remote+0x100000, false, s2)
	localLat := d1
	remoteLat := d2 - s2
	if remoteLat <= localLat {
		t.Errorf("remote access (%d) not slower than local (%d)", remoteLat, localLat)
	}
	// The gap must be at least the extra 2*(3-1) hops of propagation.
	cfg := DefaultConfig()
	minGap := 2 * cfg.HopCycles * 2
	if remoteLat-localLat < minGap {
		t.Errorf("remote-local gap = %d, want >= %d", remoteLat-localLat, minGap)
	}
	if st := s.CoreStats(0); st.RemoteDRAM != 1 {
		t.Errorf("RemoteDRAM = %d, want 1", st.RemoteDRAM)
	}
}

func TestCrossNodeLinkContention(t *testing.T) {
	s := newSystem(t)
	m := s.Mapping()
	remote, _ := m.NodeRange(3)

	// Two cores on node 0 issue simultaneous remote accesses to
	// node 3 over the same link: the second is delayed.
	d1 := s.Access(0, remote+0x10000, false, 0)
	d2 := s.Access(1, remote+0x20000, false, 0)
	if d2 <= d1 {
		t.Errorf("link contention missing: %d vs %d", d2, d1)
	}
	// A fresh system with the second access going to a different
	// node pair must not see that delay.
	s2 := newSystem(t)
	other, _ := s2.Mapping().NodeRange(2)
	e1 := s2.Access(0, remote+0x10000, false, 0)
	e2 := s2.Access(1, other+0x20000, false, 0)
	_ = e1
	if e2 >= d2 {
		t.Errorf("distinct node pairs contended: %d vs %d", e2, d2)
	}
}

func TestDirtyWritebackOccupiesBank(t *testing.T) {
	s := newSystem(t)
	m := s.Mapping()
	// Write a line, then evict it from L3 by filling its set with
	// 12 conflicting lines (L3 is 12-way; same set = same bits
	// 7..19 with different tags).
	victim := phys.Addr(0x100000)
	s.Access(0, victim, true, 0)
	var tnow clock.Time = 100000
	for i := 1; i <= 12; i++ {
		conflict := victim + phys.Addr(i)<<20 // same set bits, different tag
		if !m.Valid(conflict) {
			t.Skip("test memory too small for conflict generation")
		}
		tnow = s.Access(0, conflict, false, tnow) + 1000
	}
	// The writeback shows up in DRAM stats as an extra access
	// beyond the 13 demand reads... demand accesses: 13, writeback >= 1.
	tot := s.DRAM().TotalStats()
	if tot.Accesses < 14 {
		t.Errorf("DRAM accesses = %d, want >= 14 (13 demand + writeback)", tot.Accesses)
	}
}

func TestNodeMismatchRejected(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, 2) // 2 != 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(top, m, DefaultConfig()); err == nil {
		t.Error("New accepted node-count mismatch")
	}
}

// AccessLevel numbers lines by phys.LineShift, so a level with any
// other line size would index its sets by the wrong bits: a 64-byte
// L3 line would silently build 16,384 sets, a 24 MB cache.
func TestLineShiftMismatchRejected(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig()
		lvl := []*cache.Config{&cfg.L1, &cfg.L2, &cfg.L3}[i]
		lvl.LineShift = phys.LineShift - 1
		if _, err := cache.New(*lvl); err != nil {
			t.Fatalf("%s: the cache itself should accept LineShift %d: %v", lvl.Name, lvl.LineShift, err)
		}
		if _, err := New(top, m, cfg); err == nil {
			t.Errorf("New accepted %s LineShift %d, want phys.LineShift %d", lvl.Name, lvl.LineShift, phys.LineShift)
		}
	}
}

func TestInvalidAddressPanics(t *testing.T) {
	s := newSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic on invalid address")
		}
	}()
	s.Access(0, phys.Addr(testMem), false, 0)
}

func TestResetStatsAndFlush(t *testing.T) {
	s := newSystem(t)
	s.Access(0, 0x4000, false, 0)
	s.ResetStats()
	if st := s.TotalStats(); st.Accesses != 0 {
		t.Errorf("ResetStats left %+v", st)
	}
	// Contents survive ResetStats: next access is an L1 hit.
	d := s.Access(0, 0x4000, false, 0)
	if got := d - 0; got != DefaultConfig().L1.Latency {
		t.Errorf("post-reset access latency = %d, want L1 hit", got)
	}
	s.FlushCaches()
	s.ResetStats()
	d2 := s.Access(0, 0x4000, false, 0)
	if d2 == DefaultConfig().L1.Latency {
		t.Error("FlushCaches did not invalidate L1")
	}
}

func TestTotalStatsAggregation(t *testing.T) {
	s := newSystem(t)
	s.Access(0, 0x4000, false, 0)
	s.Access(5, 0x80000, false, 0)
	tot := s.TotalStats()
	if tot.Accesses != 2 {
		t.Errorf("TotalStats.Accesses = %d, want 2", tot.Accesses)
	}
	if tot.TotalCycles == 0 {
		t.Error("TotalCycles not accumulated")
	}
}

func TestL3PerSocket(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L3PerSocket = true
	s, err := New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := phys.Addr(0x40000)
	// Core 0 (socket 0) pulls the line into socket 0's L3.
	d := s.Access(0, a, false, 0)
	// Core 8 (socket 1) misses its own L3 and goes to DRAM: its
	// latency must exceed an L3 hit.
	t2 := d + 1000
	d2 := s.Access(8, a, false, t2)
	l3hit := cfg.L1.Latency + cfg.L2.Latency + cfg.L3.Latency
	if d2-t2 <= l3hit {
		t.Errorf("cross-socket access hit a foreign L3: latency %d", d2-t2)
	}
	// Core 1 (socket 0) does hit socket 0's L3.
	t3 := d2 + 1000
	d3 := s.Access(1, a, false, t3)
	if d3-t3 != l3hit {
		t.Errorf("same-socket L3 hit latency = %d, want %d", d3-t3, l3hit)
	}
	if st := s.L3Stats(); st.Accesses == 0 {
		t.Error("L3Stats empty")
	}
}

func TestL3StatsAggregation(t *testing.T) {
	s := newSystem(t)
	s.Access(0, 0x4000, false, 0)
	if got, want := s.L3Stats(), s.L3().Stats(); got != want {
		t.Errorf("shared-L3 aggregate %+v != instance stats %+v", got, want)
	}
}

func TestAccessLevelClassification(t *testing.T) {
	s := newSystem(t)
	m := s.Mapping()
	local, _ := m.NodeRange(0)
	remote, _ := m.NodeRange(3)

	_, lvl := s.AccessLevel(0, local+0x1000, false, 0)
	if lvl != LevelDRAMLocal {
		t.Errorf("cold local access level = %v", lvl)
	}
	_, lvl = s.AccessLevel(0, local+0x1000, false, 100000)
	if lvl != LevelL1 {
		t.Errorf("warm access level = %v", lvl)
	}
	_, lvl = s.AccessLevel(0, remote+0x1000, false, 200000)
	if lvl != LevelDRAMRemote {
		t.Errorf("cold remote access level = %v", lvl)
	}
	// Another core on the same... L2 level: evict from L1 by
	// conflict is fiddly; instead check L3 via cross-core hit.
	_, lvl = s.AccessLevel(1, local+0x1000, false, 300000)
	if lvl != LevelL3 {
		t.Errorf("cross-core access level = %v, want L3", lvl)
	}
	for l, want := range map[Level]string{
		LevelL1: "L1", LevelL2: "L2", LevelL3: "L3",
		LevelDRAMLocal: "DRAM-local", LevelDRAMRemote: "DRAM-remote",
	} {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q", l, l.String())
		}
	}
	if Level(99).String() != "level?" {
		t.Error("unknown level string")
	}
}
