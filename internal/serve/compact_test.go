// Tests for the serving layer's compaction daemon: the deterministic
// single-threaded swap protocol first, then a -race hammer with every
// core allocating against the background workers. External package for
// the same reason as differential_test.go — the auditor imports serve.
package serve_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// narrowClient registers a colored client on node with the same
// 8-bank x 8-LLC claim the serve package's own tests use: 256
// preferred frames, so allocating past that forces ladder loans while
// the rest of the machine stays free.
func narrowClient(t *testing.T, s *serve.Server, m *phys.Mapping, top *topology.Topology, node int) *serve.Client {
	t.Helper()
	c, err := s.NewClient(top.CoresOfNode(topology.NodeID(node))[0])
	if err != nil {
		t.Fatal(err)
	}
	banks := m.BankColorsOfNode(node)
	if err := c.SetColors(banks[:8], []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	return c
}

// overCommit allocates n frames on c, far past a narrowClient claim,
// and returns the owned set. The tail of the sequence rides the
// borrow ladder, so loans are guaranteed.
func overCommit(t *testing.T, c *serve.Client, n int) map[phys.Frame]bool {
	t.Helper()
	owned := make(map[phys.Frame]bool, n)
	for i := 0; i < n; i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		owned[f] = true
	}
	return owned
}

// freePreferred frees up to n of c's non-loaned frames (for a colored
// client those sit at preferred placement, so each free reparks
// supply the compactor can hand back out) and returns how many.
func freePreferred(t *testing.T, s *serve.Server, c *serve.Client, owned map[phys.Frame]bool, n int) int {
	t.Helper()
	freed := 0
	for f := range owned {
		if freed == n {
			break
		}
		if s.LoanRungMirror(f) != kernel.RungNone {
			continue
		}
		if err := c.Free(f); err != nil {
			t.Fatal(err)
		}
		delete(owned, f)
		freed++
	}
	return freed
}

func drainAll(t *testing.T, c *serve.Client, owned map[phys.Frame]bool) {
	t.Helper()
	for f := range owned {
		if err := c.Free(f); err != nil {
			t.Fatalf("drain free %d: %v", f, err)
		}
	}
}

// A compaction pass migrates loans onto freed-up preferred supply and
// settles them: ownership transfers through the relocator, the ledger
// and rung mirror shrink together, and the auditor stays green.
func TestCompactShardSettlesColoredLoans(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.CompactionEnabled() {
		t.Fatal("background compaction running with CompactBudget 0")
	}
	c := narrowClient(t, s, m, top, 0)
	owned := overCommit(t, c, 400)

	before := s.Stats()
	if before.Loans == 0 {
		t.Fatal("claim not exhausted: no loans to compact")
	}
	supply := freePreferred(t, s, c, owned, 64)
	if supply != 64 {
		t.Fatalf("freed %d preferred frames, want 64", supply)
	}

	var swaps [][2]phys.Frame
	c.SetRelocator(func(old, new phys.Frame) bool {
		if !owned[old] {
			t.Errorf("relocator offered frame %d the client does not hold", old)
			return false
		}
		delete(owned, old)
		owned[new] = true
		swaps = append(swaps, [2]phys.Frame{old, new})
		return true
	})

	wantMoved := before.Loans
	if supply < wantMoved {
		wantMoved = supply
	}
	res := s.CompactShard(0, 1<<20)
	if res.Moved != wantMoved || res.Declined != 0 {
		t.Fatalf("CompactShard = %+v, want %d moved and none declined", res, wantMoved)
	}
	st := s.Stats()
	if st.Loans != before.Loans-wantMoved {
		t.Fatalf("loans = %d after moving %d of %d", st.Loans, wantMoved, before.Loans)
	}
	if st.CompactMoved != uint64(wantMoved) || st.CompactPasses == 0 {
		t.Fatalf("compact stats = %+v", st)
	}
	for _, sw := range swaps {
		old, fresh := sw[0], sw[1]
		if m.NodeOfFrame(fresh) != 0 {
			t.Errorf("replacement %d on node %d, want home node 0", fresh, m.NodeOfFrame(fresh))
		}
		if !c.OwnsBankColor(m.FrameBankColor(fresh)) || !c.OwnsLLCColor(m.FrameLLCColor(fresh)) {
			t.Errorf("replacement %d (%d,%d) outside the client's claim",
				fresh, m.FrameBankColor(fresh), m.FrameLLCColor(fresh))
		}
		if s.LoanRungMirror(fresh) != kernel.RungNone {
			t.Errorf("replacement %d carries a loan", fresh)
		}
		if s.LoanRungMirror(old) != kernel.RungNone {
			t.Errorf("migrated frame %d still marked loaned", old)
		}
	}
	auditServerClean(t, s)

	drainAll(t, c, owned)
	if st := s.Stats(); st.Loans != 0 {
		t.Fatalf("%d loans after full drain", st.Loans)
	}
	if r := auditServerClean(t, s); r.Mapped != 0 {
		t.Fatalf("%d frames outstanding after full drain", r.Mapped)
	}
}

// Compaction is strictly opt-in and decline-safe: with no relocator
// every candidate is skipped; a declining relocator costs budget but
// changes nothing, and the reserved replacement frame goes back to
// supply instead of leaking.
func TestCompactShardDeclineKeepsLoan(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := narrowClient(t, s, m, top, 0)
	owned := overCommit(t, c, 400)
	before := s.Stats()
	if before.Loans == 0 {
		t.Fatal("claim not exhausted: no loans to compact")
	}
	freePreferred(t, s, c, owned, 32)

	// No relocator: nothing moves, nothing is charged to the budget.
	res := s.CompactShard(0, 100)
	if res.Moved != 0 || res.Declined != 0 || res.Skipped != before.Loans {
		t.Fatalf("pass without relocator = %+v, want all %d candidates skipped", res, before.Loans)
	}

	declines := 0
	c.SetRelocator(func(old, new phys.Frame) bool {
		declines++
		return false
	})
	res = s.CompactShard(0, 10)
	if res.Moved != 0 || res.Declined != 10 || declines != 10 {
		t.Fatalf("declining pass = %+v (callback ran %d times), want exactly the budget of 10 declined", res, declines)
	}
	st := s.Stats()
	if st.Loans != before.Loans {
		t.Fatalf("loans = %d after declined passes, want %d untouched", st.Loans, before.Loans)
	}
	if st.CompactDeclined != 10 || st.CompactMoved != 0 {
		t.Fatalf("compact stats = %+v", st)
	}

	// Removing the relocator returns the client to opt-out.
	c.SetRelocator(nil)
	if res := s.CompactShard(0, 100); res.Moved != 0 || res.Declined != 0 {
		t.Fatalf("pass after SetRelocator(nil) = %+v", res)
	}

	// The audit's accounting balance proves the reserved-then-declined
	// replacement frames were reclaimed, not leaked.
	if r := auditServerClean(t, s); r.Mapped != uint64(len(owned)) {
		t.Fatalf("outstanding = %d, want %d", r.Mapped, len(owned))
	}
	drainAll(t, c, owned)
	auditServerClean(t, s)
}

// An uncolored client's preferred path is the local zone, so only its
// parked-remote loans repair divergence — borrow-color loans already
// sit on the home node and must be left alone, exactly like the
// kernel daemon's rule.
func TestCompactUncoloredMovesOnlyRemoteLoans(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Park colored supply on nodes 2 and 3 so the uncolored ladder has
	// both local (borrow-color) and remote rungs to fall onto: each
	// colored client's alloc/free cycle shatters one order-11 block —
	// HALF the node — and reparks. The helpers allocate well under the
	// matching frames a single shatter parks, so the other half of each
	// zone stays uncolored: that remnant is the uncolored client's
	// preferred supply later.
	const home = 2
	for _, node := range []int{2, 3} {
		helper := narrowClient(t, s, m, top, node)
		var fs []phys.Frame
		for i := 0; i < 64; i++ {
			f, err := helper.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		for _, f := range fs {
			if err := helper.Free(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	zoneLeft := 0
	s.VisitShardFree(home, func(head phys.Frame, order int) { zoneLeft += 1 << order })
	if zoneLeft == 0 {
		t.Fatal("helper churn shattered node 2's whole zone; no uncolored supply left")
	}

	u, err := s.NewClient(top.CoresOfNode(home)[1])
	if err != nil {
		t.Fatal(err)
	}
	// Drain every zone, then keep going until the ladder has walked
	// through the local parked pages (borrow-color) and handed out 100
	// remote parked pages from node 3.
	owned := make(map[phys.Frame]bool)
	nRemote := 0
	for nRemote < 100 {
		f, err := u.Alloc()
		if err != nil {
			t.Fatalf("machine exhausted with only %d remote loans", nRemote)
		}
		owned[f] = true
		if s.LoanRungMirror(f) == kernel.RungRemote {
			nRemote++
		}
	}
	rungCount := func() map[kernel.Rung]int {
		n := make(map[kernel.Rung]int)
		for f := phys.Frame(0); uint64(f) < m.Frames(); f++ {
			if r := s.LoanRungMirror(f); r != kernel.RungNone {
				n[r]++
			}
		}
		return n
	}
	before := rungCount()
	if before[kernel.RungBorrowColor] == 0 {
		t.Fatal("no borrow-color loans: the skip rule is not exercised")
	}

	// Free 32 local zone frames: preferred supply for an uncolored
	// client on its home node.
	supply := 0
	for f := range owned {
		if supply == 32 {
			break
		}
		if s.LoanRungMirror(f) != kernel.RungNone || m.NodeOfFrame(f) != home || s.ColoredFrame(f) {
			continue
		}
		if err := u.Free(f); err != nil {
			t.Fatal(err)
		}
		delete(owned, f)
		supply++
	}
	if supply != 32 {
		t.Fatalf("freed %d local zone frames, want 32", supply)
	}

	wasRemote := make(map[phys.Frame]bool)
	for f := range owned {
		if s.LoanRungMirror(f) == kernel.RungRemote {
			wasRemote[f] = true
		}
	}
	var swaps [][2]phys.Frame
	u.SetRelocator(func(old, new phys.Frame) bool {
		if !owned[old] {
			return false
		}
		delete(owned, old)
		owned[new] = true
		swaps = append(swaps, [2]phys.Frame{old, new})
		return true
	})

	// Home shard first: all of its candidates are non-remote loans of
	// an uncolored client, so none may be attempted.
	resHome := s.CompactShard(home, 1<<20)
	if resHome.Moved != 0 || resHome.Declined != 0 || resHome.Skipped < before[kernel.RungBorrowColor] {
		t.Fatalf("home shard pass = %+v, want all %d borrow-color loans skipped",
			resHome, before[kernel.RungBorrowColor])
	}
	moved := 0
	for i := 0; i < s.NumShards(); i++ {
		if i == home {
			continue
		}
		moved += s.CompactShard(i, 1<<20).Moved
	}
	if moved != 32 {
		t.Fatalf("moved %d remote loans, want all 32 the freed zone supply allows", moved)
	}
	for _, sw := range swaps {
		old, fresh := sw[0], sw[1]
		if !wasRemote[old] {
			t.Errorf("compaction migrated non-remote loan frame %d of an uncolored client", old)
		}
		if m.NodeOfFrame(fresh) != home || s.ColoredFrame(fresh) {
			t.Errorf("replacement %d is not a local zone frame", fresh)
		}
	}
	after := rungCount()
	if after[kernel.RungBorrowColor] != before[kernel.RungBorrowColor] {
		t.Errorf("borrow-color loans went %d -> %d; compaction must not touch them",
			before[kernel.RungBorrowColor], after[kernel.RungBorrowColor])
	}
	if after[kernel.RungRemote] != before[kernel.RungRemote]-32 {
		t.Errorf("remote loans went %d -> %d, want exactly 32 settled",
			before[kernel.RungRemote], after[kernel.RungRemote])
	}
	auditServerClean(t, s)

	drainAll(t, u, owned)
	if st := s.Stats(); st.Loans != 0 {
		t.Fatalf("%d loans after full drain", st.Loans)
	}
	auditServerClean(t, s)
}

// The compaction hammer: background per-shard workers with a small
// budget against one allocating/freeing client per core, all with
// live relocators. Every swap races client traffic, so `go test
// -race` checks the two-party protocol's ordering; the final audit
// (ledger vs rung mirror both directions, ownership, accounting
// balance) checks it leaked or double-owned nothing. Run under -race
// in CI via the adaptive-smoke job.
func TestCompactHammerSixteenClients(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	cores := make([]topology.CoreID, top.Cores())
	for i := range cores {
		cores[i] = topology.CoreID(i)
	}
	asn, err := policy.Plan(policy.MEMLLC, m, top, cores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(top, m, serve.Config{CompactBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.CompactionEnabled() {
		t.Fatal("CompactBudget set but no background workers running")
	}

	n := len(cores)
	clients := make([]*serve.Client, n)
	mus := make([]sync.Mutex, n)
	sets := make([]map[phys.Frame]bool, n)
	for i := range cores {
		c, err := s.NewClient(cores[i])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		sets[i] = make(map[phys.Frame]bool)
		// Half the clients take a deliberately tiny slice of their plan
		// assignment — a handful of preferred frames — so churn drives
		// them up the ladder and keeps the loan ledger busy.
		if i%2 == 0 {
			if err := c.SetColors(asn[i].BankColors[:1], asn[i].LLCColors[:1]); err != nil {
				t.Fatal(err)
			}
		}
		i := i
		c.SetRelocator(func(old, new phys.Frame) bool {
			mus[i].Lock()
			defer mus[i].Unlock()
			if !sets[i][old] {
				// The client freed (or is about to free) old, or has not
				// yet recorded it; decline rather than race the swap.
				return false
			}
			delete(sets[i], old)
			sets[i][new] = true
			return true
		})
	}

	// takeOne removes and returns an arbitrary owned frame.
	takeOne := func(i int) (phys.Frame, bool) {
		mus[i].Lock()
		defer mus[i].Unlock()
		for f := range sets[i] {
			delete(sets[i], f)
			return f, true
		}
		return 0, false
	}

	const ops = 400
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for op := 0; op < ops; op++ {
				if op%32 == 0 {
					s.KickCompact()
				}
				if rng.Intn(10) < 3 {
					if f, ok := takeOne(i); ok {
						if err := c.Free(f); err != nil {
							errs[i] = err
							return
						}
					}
					continue
				}
				f, err := c.Alloc()
				switch {
				case errors.Is(err, serve.ErrBusy):
					runtime.Gosched()
					continue
				case errors.Is(err, serve.ErrNoMemory):
					if f, ok := takeOne(i); ok {
						if err := c.Free(f); err != nil {
							errs[i] = err
							return
						}
					}
					continue
				case err != nil:
					errs[i] = err
					return
				}
				mus[i].Lock()
				sets[i][f] = true
				mus[i].Unlock()
			}
		}(i, clients[i])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Quiesce the churn, free every non-loaned frame to repark
	// preferred supply, then run one deterministic budgetless sweep so
	// the pass is guaranteed to find work even if the background
	// workers never caught the churn at the right moment.
	for i, c := range clients {
		mus[i].Lock()
		var pref []phys.Frame
		for f := range sets[i] {
			if s.LoanRungMirror(f) == kernel.RungNone {
				pref = append(pref, f)
				delete(sets[i], f)
			}
		}
		mus[i].Unlock()
		for _, f := range pref {
			if err := c.Free(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < s.NumShards(); i++ {
		s.CompactShard(i, 1<<20)
	}
	if st := s.Stats(); st.CompactMoved == 0 {
		t.Errorf("no loans migrated across the whole hammer: %+v", st)
	}

	for i, c := range clients {
		for {
			f, ok := takeOne(i)
			if !ok {
				break
			}
			if err := c.Free(f); err != nil {
				t.Fatalf("drain client %d: %v", i, err)
			}
		}
	}
	s.Close() // stop the workers so the audit walk is quiescent
	r := auditServerClean(t, s)
	if r.Mapped != 0 || r.Loans != 0 {
		t.Fatalf("after full drain: %d outstanding, %d loans", r.Mapped, r.Loans)
	}
}
