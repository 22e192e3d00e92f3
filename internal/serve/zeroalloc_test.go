package serve

import (
	"errors"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Zero-allocation gates for the serving hot paths (DESIGN.md Sec. 14).
// Each test drives the public Alloc/Free surface to a deterministic
// steady state and then require exactly 0 allocs/op from
// testing.AllocsPerRun, which counts mallocs from every goroutine.
// The measured loops are repeated manually first because
// AllocsPerRun performs only one warmup run, and one-time amortized
// costs (color-bucket capacity) need a few rounds to settle.
//
// The gates assert the shard's miss counter too, so each test proves
// it exercised the path it claims to gate: the fast-path test must
// never miss, the miss and borrow-color tests must miss every
// iteration.

// mustZeroAllocs runs AllocsPerRun and fails unless the loop is
// allocation-free. Under the race detector the instrumentation itself
// allocates, so the gate is skipped (raceEnabled is set by build tag).
func mustZeroAllocs(t *testing.T, name string, loop func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("%s: AllocsPerRun is meaningless under -race", name)
	}
	// Settle amortized one-time costs before measuring.
	for i := 0; i < 64; i++ {
		loop()
	}
	if n := testing.AllocsPerRun(200, loop); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

// TestZeroAllocColoredFastPath gates the colored fast path: a striped
// color-list pop (Alloc) and the matching repark (Free) must not
// allocate once the lists are warm.
func TestZeroAllocColoredFastPath(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	sh := s.shards[0]

	// Warm the color lists: a burst of allocations forces refills to
	// park frames across the claim's buckets, and freeing them leaves
	// every bucket at its high-water capacity.
	warm := make([]phys.Frame, 0, 128)
	for i := 0; i < cap(warm); i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("warmup alloc %d: %v", i, err)
		}
		warm = append(warm, f)
	}
	for _, f := range warm {
		if err := c.Free(f); err != nil {
			t.Fatalf("warmup free: %v", err)
		}
	}

	missesBefore := sh.misses.Load()
	mustZeroAllocs(t, "colored alloc/free", func() {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := c.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
	})
	if d := sh.misses.Load() - missesBefore; d != 0 {
		t.Fatalf("fast-path loop missed %d times; lists were not warm", d)
	}
}

// TestZeroAllocInlineMiss gates the miss path: the high-water check,
// the zone-locked park-count check, the failed shatter, a walk down
// every rung of the ladder and the ErrNoMemory return must not
// allocate. The whole machine is drained so the first Alloc of every
// iteration is a guaranteed popMatch miss that runs serveMiss end to
// end (and comes back ErrNoMemory — every zone and bucket is empty);
// the iteration then frees and re-allocates one held frame so the
// state entering the next iteration is identical. No drift, no loan.
func TestZeroAllocInlineMiss(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Claim every bank color of node 0 and every LLC color, so the
	// first frame held below is a preferred one that a free parks on
	// the claim again; the ladder then hands out the rest of the
	// machine.
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
			t.Fatalf("drain alloc %d: %v", len(held), err)
		}
		held = append(held, f)
	}
	if len(held) == 0 {
		t.Fatal("drained zero frames")
	}
	f := held[0]

	sh := s.shards[0]
	missesBefore := sh.misses.Load()
	iters := 0
	mustZeroAllocs(t, "inline miss on a drained machine", func() {
		iters++
		// Guaranteed miss: nothing is parked and every zone is dry, so
		// serveMiss skips the retry (nothing was parked since the fast
		// path), fails shatterLocked, finds no rung of the ladder, and
		// returns ErrNoMemory.
		if _, err := c.Alloc(); !errors.Is(err, ErrNoMemory) {
			t.Fatalf("want ErrNoMemory from a drained machine, got %v", err)
		}
		// Restore the pre-iteration state through the fast path.
		if err := c.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
		got, err := c.Alloc()
		if err != nil {
			t.Fatalf("re-alloc: %v", err)
		}
		f = got
	})
	if d := int(sh.misses.Load() - missesBefore); d < iters {
		t.Fatalf("only %d misses over %d iterations; the loop did not reach serveMiss", d, iters)
	}
}

// TestZeroAllocBorrowColor gates the borrow ladder's first rung: a
// colored client past its claim, with its home zone dry, is served a
// parked page of a bank color no client claims (RungBorrowColor).
// The client first takes every frame of its claim on node 0, which
// shatters the whole zone onto the color lists; each iteration then
// misses, walks the ladder to the same parked page (LIFO), and frees
// it back onto its bucket, so no state drifts between iterations.
func TestZeroAllocBorrowColor(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(m.BankColorsOfNode(0)[:2], []int{3, 7}); err != nil {
		t.Fatal(err)
	}
	borrowed := func() uint64 { return s.Stats().Borrows[kernel.RungBorrowColor] }
	for i := 0; borrowed() == 0; i++ {
		if i == int(m.Frames()) {
			t.Fatal("never reached the borrow-color rung")
		}
		if _, err := c.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}

	sh := s.shards[0]
	missesBefore := sh.misses.Load()
	iters := 0
	mustZeroAllocs(t, "borrow-color rung", func() {
		iters++
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if r := s.LoanRung(f); r != kernel.RungBorrowColor {
			t.Fatalf("frame %d served at rung %v, want %v", f, r, kernel.RungBorrowColor)
		}
		if err := c.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
	})
	if d := int(sh.misses.Load() - missesBefore); d < iters {
		t.Fatalf("only %d misses over %d iterations; the loop did not reach the ladder", d, iters)
	}
}

// allLLC returns every LLC color of the mapping.
func allLLC(m *phys.Mapping) []int {
	out := make([]int, m.NumLLCColors())
	for i := range out {
		out[i] = i
	}
	return out
}
