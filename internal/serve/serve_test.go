package serve

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 64 << 20

func testServer(t *testing.T, cfg Config) (*Server, *phys.Mapping, *topology.Topology) {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, m, top
}

func coloredClient(t *testing.T, s *Server, m *phys.Mapping, top *topology.Topology, node int) *Client {
	t.Helper()
	c, err := s.NewClient(top.CoresOfNode(topology.NodeID(node))[0])
	if err != nil {
		t.Fatal(err)
	}
	// 8 banks x 8 LLC colors x 4 frames per combo = 256 matching
	// frames on the home node; tests that must stay at preferred
	// placement allocate fewer than that.
	banks := m.BankColorsOfNode(node)
	if err := c.SetColors(banks[:8], []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.HighWater != 192 {
		t.Errorf("defaults = %+v, want HighWater 192", c)
	}
	if c := (Config{HighWater: 7}).withDefaults(); c.HighWater != 7 {
		t.Errorf("explicit values changed: %+v", c)
	}
}

// New rejects a high-water mark the int32 miss counter cannot hold:
// it would wrap negative and fail every miss with ErrBusy.
func TestNewRejectsHighWaterPastInt32(t *testing.T) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(top, m, Config{HighWater: math.MaxInt32})
	if err != nil {
		t.Fatalf("HighWater at MaxInt32: %v", err)
	}
	s.Close()
	if _, err := New(top, m, Config{HighWater: math.MaxInt32 + 1}); err == nil {
		t.Fatal("HighWater past MaxInt32 accepted")
	}
}

func TestColoredAllocMatchesClaim(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	var frames []phys.Frame
	for i := 0; i < 200; i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if !c.OwnsBankColor(m.FrameBankColor(f)) {
			t.Fatalf("frame %d has bank color %d outside claim %v", f, m.FrameBankColor(f), c.BankColors())
		}
		if !c.OwnsLLCColor(m.FrameLLCColor(f)) {
			t.Fatalf("frame %d has LLC color %d outside claim %v", f, m.FrameLLCColor(f), c.LLCColors())
		}
		if m.NodeOfFrame(f) != 0 {
			t.Fatalf("frame %d on node %d, want home node 0", f, m.NodeOfFrame(f))
		}
		frames = append(frames, f)
	}
	st := s.Stats()
	if st.ColoredPages != 200 || st.DegradedAllocs() != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Refills == 0 {
		t.Error("no block shatters recorded for colored allocations")
	}
	for _, f := range frames {
		if err := c.Free(f); err != nil {
			t.Fatalf("free %d: %v", f, err)
		}
	}
	if st := s.Stats(); st.Frees != 200 || st.Loans != 0 {
		t.Errorf("after frees: %+v", st)
	}
}

func TestUncoloredAllocStaysLocal(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(2)[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if m.NodeOfFrame(f) != 2 {
			t.Fatalf("uncolored frame %d on node %d, want local node 2", f, m.NodeOfFrame(f))
		}
	}
	if st := s.Stats(); st.DefaultAllocs != 100 {
		t.Errorf("DefaultAllocs = %d, want 100", st.DefaultAllocs)
	}
}

// Per-shard determinism: the same single-client request sequence on
// two fresh servers hands out the same frames in the same order.
func TestSingleClientDeterministic(t *testing.T) {
	run := func() []phys.Frame {
		s, m, top := testServer(t, Config{})
		c := coloredClient(t, s, m, top, 1)
		var out []phys.Frame
		for i := 0; i < 300; i++ {
			f, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
			if i%3 == 0 {
				if err := c.Free(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alloc %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBackpressureErrBusy(t *testing.T) {
	s, m, top := testServer(t, Config{HighWater: 4})
	c := coloredClient(t, s, m, top, 0)
	// Saturate the home shard's in-flight counter by hand: the next
	// miss must be rejected without touching the zone.
	sh := s.routeShard(c, 0)
	sh.pending.Store(int32(s.cfg.HighWater))
	_, err := c.Alloc()
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("Alloc under saturation = %v, want ErrBusy", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	sh.pending.Store(0)
	if _, err := c.Alloc(); err != nil {
		t.Fatalf("Alloc after drain: %v", err)
	}
	// Rejection left the counter balanced: pending returns to zero
	// once the successful miss completes.
	if got := sh.pending.Load(); got != 0 {
		t.Errorf("pending = %d after quiesce, want 0", got)
	}
}

// Misses waiting on a shard's zone lock count against HighWater: with
// HighWater misses parked on zoneMu, the next miss fails at once with
// ErrBusy, and the count drains to zero once the waiters finish.
func TestBackpressureConcurrentMisses(t *testing.T) {
	const hw = 3
	s, m, top := testServer(t, Config{HighWater: hw})
	c := coloredClient(t, s, m, top, 0)
	sh := s.shards[0]
	sh.zoneMu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, hw)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Alloc()
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sh.pending.Load() < hw {
		if time.Now().After(deadline) {
			n := sh.pending.Load()
			sh.zoneMu.Unlock()
			wg.Wait()
			t.Fatalf("%d of %d misses counted while waiting on zoneMu", n, hw)
		}
		runtime.Gosched()
	}
	// The probe runs aside, so a HighWater check that lets it through
	// to zoneMu fails the test at the deadline instead of hanging it.
	probe := make(chan error, 1)
	go func() {
		_, err := c.Alloc()
		probe <- err
	}()
	var err error
	select {
	case err = <-probe:
	case <-time.After(time.Until(deadline)):
		sh.zoneMu.Unlock()
		<-probe
		wg.Wait()
		t.Fatalf("miss past %d waiting misses blocked on zoneMu instead of failing with ErrBusy", hw)
	}
	sh.zoneMu.Unlock()
	wg.Wait()
	if !errors.Is(err, ErrBusy) {
		t.Errorf("miss past %d waiting misses = %v, want ErrBusy", hw, err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiting miss %d: %v", i, err)
		}
	}
	if got := sh.pending.Load(); got != 0 {
		t.Errorf("pending = %d after the waiters finished, want 0", got)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

func TestFreeErrors(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	other, err := s.NewClient(top.CoresOfNode(0)[1])
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Free(f); !errors.Is(err, ErrNotOwner) {
		t.Errorf("foreign free = %v, want ErrNotOwner", err)
	}
	if err := c.Free(f); err != nil {
		t.Fatalf("owner free: %v", err)
	}
	if err := c.Free(f); !errors.Is(err, ErrNotOwner) {
		t.Errorf("double free = %v, want ErrNotOwner", err)
	}
	if err := c.Free(phys.Frame(m.Frames())); err == nil {
		t.Error("out-of-range free succeeded")
	}
}

func TestSetColorsValidation(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		bank, llc []int
		want      string
	}{
		{"bank color past the range", []int{m.NumBankColors()}, nil, "out of range"},
		{"negative LLC color", nil, []int{-1}, "out of range"},
		{"repeated bank color", []int{4, 0, 4}, []int{1}, "bank color 4 repeated"},
		{"repeated LLC color", []int{0}, []int{31, 2, 31}, "LLC color 31 repeated"},
		{"repeated color in an LLC-only claim", nil, []int{5, 5}, "LLC color 5 repeated"},
	} {
		err := c.SetColors(tc.bank, tc.llc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SetColors(%v, %v) = %v, want an error containing %q", tc.name, tc.bank, tc.llc, err, tc.want)
		}
	}
	if bank, llc := s.ClaimCounts(); slices.ContainsFunc(bank, nonZero) || slices.ContainsFunc(llc, nonZero) {
		t.Errorf("rejected claims left counts behind: bank %v, LLC %v", bank, llc)
	}
	if err := c.SetColors([]int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors([]int{1}, nil); err == nil {
		t.Error("second SetColors accepted")
	}
}

func nonZero(n int) bool { return n != 0 }

// A miss re-tries the color lists under the zone lock only when a
// frame was parked after its fast path read the park count: with the
// machine drained, a frame freed between the fast path and serveMiss
// is served at preferred placement, and with nothing parked since, the
// miss goes straight to the dry zone and down an empty ladder.
func TestServeMissRetriesAfterPark(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(m.BankColorsOfNode(0), allLLC(m)); err != nil {
		t.Fatal(err)
	}
	var held []phys.Frame
	for {
		f, err := c.Alloc()
		if errors.Is(err, ErrNoMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	sh := s.shards[0]
	seq := c.cursor.Load()
	parks := sh.parks.Load()
	if _, ok := sh.popMatch(c, seq); ok {
		t.Fatal("a drained shard's fast path found a frame")
	}
	if err := c.Free(held[0]); err != nil {
		t.Fatal(err)
	}
	f, rung, err := sh.serveMiss(c, seq, parks, s)
	if err != nil || f != held[0] || rung != kernel.RungNone {
		t.Fatalf("miss after a park = (%d, %v, %v), want the parked frame %d", f, rung, err, held[0])
	}
	s.finishAlloc(c, f, rung)
	if _, _, err := sh.serveMiss(c, seq, sh.parks.Load(), s); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("miss with nothing parked: %v, want ErrNoMemory", err)
	}
}

// The ladder keeps serving past the claim: first unassigned local
// colors, then the local zone, then remote shards; every
// below-preferred frame carries a loan until freed.
func TestBorrowLadderServesPastClaim(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	var frames []phys.Frame
	for {
		f, err := c.Alloc()
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatal(err)
			}
			break
		}
		frames = append(frames, f)
		if uint64(len(frames)) > m.Frames() {
			t.Fatal("allocated more frames than the machine has")
		}
	}
	if uint64(len(frames)) != m.Frames() {
		t.Fatalf("served %d frames before ErrNoMemory, want all %d", len(frames), m.Frames())
	}
	// A single client exercises the borrow-unassigned-color rung (the
	// home node past the claim) and the remote rung (other nodes, then
	// the home node's rest). Its refills shatter the home zone before
	// the ladder runs, so RungLocalUncolored, a local zone frame, needs
	// a claim on another node (TestLadderKernelVsServe).
	st := s.Stats()
	if st.Borrows[kernel.RungBorrowColor] == 0 || st.Borrows[kernel.RungRemote] == 0 {
		t.Errorf("ladder rungs unused: %+v", st.Borrows)
	}
	if st.Loans == 0 {
		t.Error("no loans recorded for degraded allocations")
	}
	for _, f := range frames {
		if err := c.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Loans != 0 {
		t.Errorf("loans outstanding after freeing everything: %d", st.Loans)
	}
}

func TestClosedServerRejects(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	s.Close()
	if _, err := c.Alloc(); !errors.Is(err, ErrClosed) {
		t.Errorf("Alloc after Close = %v, want ErrClosed", err)
	}
	if _, err := s.NewClient(top.CoresOfNode(0)[2]); !errors.Is(err, ErrClosed) {
		t.Errorf("NewClient after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// One block shatter parks a whole block on the color lists, so the
// misses that follow hit the lists: far fewer shatters than misses.
func TestRefillAmortizes(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 3)
	for i := 0; i < 400; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Batches == 0 || st.BatchedReqs != st.Batches {
		t.Errorf("miss counters inconsistent: %+v", st)
	}
	if st.RefillFrames < st.Refills {
		t.Errorf("refill counters inconsistent: %+v", st)
	}
	// A shatter parks 2^order frames at once, so shatters stay well
	// below one per miss.
	if st.Refills >= st.Batches {
		t.Errorf("refills %d not below misses %d: no amortization", st.Refills, st.Batches)
	}
}
