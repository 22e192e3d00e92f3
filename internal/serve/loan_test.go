// Tests for the serving layer's loans: frames the borrow ladder hands
// out below preferred placement, each recorded as a rung mark on the
// frame and counted in the loan gauge. External package for the same
// reason as differential_test.go — the auditor imports serve.
package serve_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
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

func drainAll(t *testing.T, c *serve.Client, owned map[phys.Frame]bool) {
	t.Helper()
	for f := range owned {
		if err := c.Free(f); err != nil {
			t.Fatalf("drain free %d: %v", f, err)
		}
	}
}

// A colored client past its claim rides the borrow ladder: every
// frame outside the claim carries a rung mark, the loan gauge counts
// exactly the marks, a free settles mark and gauge together, and a
// full drain audits clean with no loan left.
func TestColoredLoansDrainClean(t *testing.T) {
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
		t.Fatal("claim not exhausted: no loans")
	}
	if uint64(before.Loans) != before.DegradedAllocs() {
		t.Fatalf("%d loans after %d ladder allocations and no frees", before.Loans, before.DegradedAllocs())
	}
	var loaned []phys.Frame
	for f := range owned {
		if s.LoanRung(f) != kernel.RungNone {
			loaned = append(loaned, f)
			continue
		}
		if !c.OwnsBankColor(m.FrameBankColor(f)) || !c.OwnsLLCColor(m.FrameLLCColor(f)) {
			t.Errorf("frame %d (%d,%d) outside the client's claim carries no loan",
				f, m.FrameBankColor(f), m.FrameLLCColor(f))
		}
	}
	if len(loaned) != before.Loans {
		t.Fatalf("%d frames carry a rung mark, gauge reads %d", len(loaned), before.Loans)
	}
	if r := auditServerClean(t, s); r.Mapped != 400 || r.Loans != uint64(before.Loans) {
		t.Fatalf("audit counts %d outstanding and %d loans, want 400 and %d", r.Mapped, r.Loans, before.Loans)
	}

	half := loaned[:len(loaned)/2]
	for _, f := range half {
		if err := c.Free(f); err != nil {
			t.Fatal(err)
		}
		delete(owned, f)
		if r := s.LoanRung(f); r != kernel.RungNone {
			t.Errorf("freed frame %d still marked at rung %s", f, r)
		}
	}
	if got := s.Stats().Loans; got != before.Loans-len(half) {
		t.Fatalf("gauge reads %d after settling %d of %d loans", got, len(half), before.Loans)
	}
	auditServerClean(t, s)

	drainAll(t, c, owned)
	if st := s.Stats(); st.Loans != 0 {
		t.Fatalf("%d loans after full drain", st.Loans)
	}
	if r := auditServerClean(t, s); r.Mapped != 0 || r.Loans != 0 {
		t.Fatalf("after full drain: %d outstanding, %d loans", r.Mapped, r.Loans)
	}
}

// An uncolored client past every zone spends parked colored pages:
// first its home shard's, marked RungBorrowColor, then the other
// shards', marked RungRemote. Preferred placement (a zone frame)
// carries no mark, and no rung is taken before the one above it is
// dry.
func TestUncoloredLadderRungs(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Park colored supply on nodes 2 and 3 so the uncolored ladder has
	// both local (borrow-color) and remote rungs to fall onto: each
	// colored client's alloc/free cycle shatters one order-11 block —
	// half the node — and reparks it.
	const home = 2
	for _, node := range []int{2, 3} {
		helper := narrowClient(t, s, m, top, node)
		owned := overCommit(t, helper, 64)
		drainAll(t, helper, owned)
		helper.Close()
	}

	u, err := s.NewClient(top.CoresOfNode(home)[1])
	if err != nil {
		t.Fatal(err)
	}
	// Drain every zone, then keep going until the ladder has walked
	// through the local parked pages and handed out 100 remote ones.
	owned := make(map[phys.Frame]bool)
	rungs := make(map[kernel.Rung]int)
	for rungs[kernel.RungRemote] < 100 {
		f, err := u.Alloc()
		if err != nil {
			t.Fatalf("machine exhausted with only %d remote loans", rungs[kernel.RungRemote])
		}
		owned[f] = true
		rung := s.LoanRung(f)
		rungs[rung]++
		node := m.NodeOfFrame(f)
		switch rung {
		case kernel.RungNone:
			if s.ColoredFrame(f) {
				t.Fatalf("parked frame %d handed out with no loan mark", f)
			}
			if rungs[kernel.RungBorrowColor]+rungs[kernel.RungRemote] > 0 {
				t.Fatalf("zone frame %d handed out after the ladder started", f)
			}
		case kernel.RungBorrowColor:
			if !s.ColoredFrame(f) || node != home {
				t.Fatalf("borrow-color loan %d is not a parked page of home node %d (node %d)", f, home, node)
			}
			if rungs[kernel.RungRemote] > 0 {
				t.Fatalf("local parked frame %d handed out after a remote one", f)
			}
		case kernel.RungRemote:
			if !s.ColoredFrame(f) || node == home {
				t.Fatalf("remote loan %d is not a parked page of another node (node %d)", f, node)
			}
		default:
			t.Fatalf("uncolored client's frame %d marked at rung %s", f, rung)
		}
	}
	if rungs[kernel.RungBorrowColor] == 0 {
		t.Fatal("no borrow-color loans: the local parked rung is not exercised")
	}
	st := s.Stats()
	if st.Loans != rungs[kernel.RungBorrowColor]+rungs[kernel.RungRemote] ||
		st.Borrows[kernel.RungBorrowColor] != uint64(rungs[kernel.RungBorrowColor]) ||
		st.Borrows[kernel.RungRemote] != uint64(rungs[kernel.RungRemote]) {
		t.Fatalf("stats %+v disagree with the marks %v", st, rungs)
	}
	auditServerClean(t, s)

	drainAll(t, u, owned)
	if st := s.Stats(); st.Loans != 0 {
		t.Fatalf("%d loans after full drain", st.Loans)
	}
	auditServerClean(t, s)
}

// TestAuditFlagsDanglingLoanMark marks a frame no client holds as on
// loan, gauge included, and requires the auditor to name it and
// nothing else.
func TestAuditFlagsDanglingLoanMark(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := narrowClient(t, s, m, top, 0)
	owned := overCommit(t, c, 300)
	auditServerClean(t, s)

	var free phys.Frame
	for owned[free] {
		free++
	}
	s.MarkLoan(free, kernel.RungRemote)
	r := invariant.AuditServer(s)
	want := fmt.Sprintf("loan of frame %d (rung remote) is dangling: no client holds the frame", free)
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], want) {
		t.Fatalf("audit after marking a free frame: %v\nwant the one violation %q", r.Err(), want)
	}
}

// TestAuditFlagsLoanGaugeDrift moves the loan gauge off the number of
// marks and requires the auditor to report both counts.
func TestAuditFlagsLoanGaugeDrift(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := narrowClient(t, s, m, top, 0)
	overCommit(t, c, 300)
	n := auditServerClean(t, s).Loans
	if n == 0 {
		t.Fatal("claim not exhausted: no loans")
	}

	s.SkewLoanGauge(-1)
	r := invariant.AuditServer(s)
	want := fmt.Sprintf("loan gauge reads %d but %d frames carry a rung mark", n-1, n)
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], want) {
		t.Fatalf("audit after skewing the gauge: %v\nwant the one violation %q", r.Err(), want)
	}
}

// The borrow-color rung lends only on the axis the borrower colors
// on, as the kernel's does: two clients on node 0 split one color
// axis, and the first allocates past its claim, through every color
// the rung may lend and on into the later rungs. No frame it borrows
// at RungBorrowColor may carry the other client's color on its axis,
// the auditor stays clean while it holds every frame, and once
// nothing is left to borrow the ladder serves it at
// RungLocalUncolored or RungRemote instead of failing.
func TestBorrowColorStaysOnAxis(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	banks := m.BankColorsOfNode(0)
	half := len(banks) / 2
	for _, tc := range []struct {
		name string
		bank [2][]int
		llc  [2][]int
	}{
		{"llc-only", [2][]int{}, [2][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
		{"mem+llc", [2][]int{banks[:half], banks[half:]}, [2][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := serve.New(top, m, serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var cl [2]*serve.Client
			for i := range cl {
				if cl[i], err = s.NewClient(top.CoresOfNode(0)[i]); err != nil {
					t.Fatal(err)
				}
				if err := cl[i].SetColors(tc.bank[i], tc.llc[i]); err != nil {
					t.Fatal(err)
				}
			}
			a, b := cl[0], cl[1]
			rungs := make(map[kernel.Rung]int)
			reported := false
			for i := 0; rungs[kernel.RungLocalUncolored]+rungs[kernel.RungRemote] < 64; i++ {
				f, err := a.Alloc()
				if err != nil {
					t.Fatalf("alloc %d: %v after rungs %v", i+1, err, rungs)
				}
				rung := s.LoanRung(f)
				rungs[rung]++
				bc, lc := m.FrameBankColor(f), m.FrameLLCColor(f)
				taken := a.UsingBank() && b.OwnsBankColor(bc) || !a.UsingBank() && b.OwnsLLCColor(lc)
				if rung == kernel.RungBorrowColor && taken && !reported {
					reported = true
					t.Errorf("alloc %d: frame %d (bank %d, LLC %d) borrowed at %s from the other client's claim",
						i+1, f, bc, lc, rung)
				}
			}
			t.Logf("rungs %v", rungs)
			auditServerClean(t, s)
		})
	}
}
