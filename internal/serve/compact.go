package serve

import (
	"sort"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// The serving layer's compaction daemon: the concurrent analogue of
// the kernel's Task.CompactStep. Loans accumulate whenever the borrow
// ladder hands a client a below-preferred frame; once the pressure
// that forced the loan passes (frees repark colored frames, zones
// refill), the daemon migrates loaned frames back onto preferred
// placement so the machine's coloring converges instead of decaying.
//
// The server cannot move a page by itself — the frame's contents and
// the client's mapping to it live outside the allocator. Relocation is
// therefore a two-party protocol: the compactor allocates a preferred
// replacement frame, offers an (old, new) swap to the client's
// registered relocator callback, and only on acceptance transfers
// ownership and settles the loan. A client with no relocator simply
// keeps its loans — compaction is strictly opt-in.

// RelocateFunc is a client's page-relocation callback. It is called
// by a compaction worker with a loaned frame the client holds and a
// preferred-placement replacement the compactor has exclusively
// reserved. An implementation that returns true must have copied the
// page contents, atomically switched every use of old over to new,
// and must never Free(old) afterwards — from that return on, new is
// owned by the client (freeable as usual) and old belongs to the
// server again. Returning false declines the swap: the client keeps
// old, must not touch new, and the loan stays on the ledger. The
// callback runs on a compaction goroutine, concurrently with the
// client's own Alloc/Free calls; its internal synchronization is the
// client's responsibility.
type RelocateFunc func(old, new phys.Frame) bool

// SetRelocator installs the client's relocation callback (nil removes
// it). Safe to call at any time; compaction passes observe the latest
// value.
func (c *Client) SetRelocator(fn RelocateFunc) {
	if fn == nil {
		c.relocate.Store(nil)
		return
	}
	c.relocate.Store(&fn)
}

// CompactResult reports one compaction pass.
type CompactResult struct {
	Moved    int // loans migrated to preferred placement and settled
	Declined int // swaps the owning client's relocator refused
	Skipped  int // loans not attempted (no relocator, no supply, or placement already preferred-equivalent)
}

// CompactShard runs one budgeted compaction pass over the loans whose
// frames live on shard i, in ascending frame order. Budget counts
// attempted swaps (moved + declined). It is safe to call concurrently
// with client traffic; it is also what the per-shard background
// workers run when kicked.
func (s *Server) CompactShard(i int, budget int) CompactResult {
	var res CompactResult
	if budget <= 0 || i < 0 || i >= len(s.shards) {
		return res
	}
	node := s.shards[i].node
	s.loanMu.Lock()
	cands := make([]phys.Frame, 0, len(s.loans))
	for f := range s.loans {
		if s.mapping.NodeOfFrame(f) == node {
			cands = append(cands, f)
		}
	}
	s.loanMu.Unlock()
	sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
	s.stats.compactPasses.Add(1)
	for _, old := range cands {
		if budget <= 0 {
			break
		}
		// Re-read: the loan may have settled (client freed the frame)
		// since the snapshot.
		s.loanMu.Lock()
		l, live := s.loans[old]
		s.loanMu.Unlock()
		if !live {
			continue
		}
		c := l.Client
		fnp := c.relocate.Load()
		if fnp == nil {
			res.Skipped++
			continue
		}
		// Same placement rule as the kernel daemon: an uncolored
		// client's preferred path hands out local frames, so only its
		// parked-remote loans are worth a copy.
		if !c.usingBank && !c.usingLLC && l.Rung != kernel.RungRemote {
			res.Skipped++
			continue
		}
		fresh, ok := s.allocPreferredFor(c)
		if !ok {
			// No preferred supply for this client right now; later loans
			// may belong to other clients, so keep scanning.
			res.Skipped++
			continue
		}
		// Hand the replacement to the client before the callback so the
		// client may Free(new) the instant its relocator commits.
		s.owners[fresh].Store(int32(c.id) + 1)
		if !(*fnp)(old, fresh) {
			res.Declined++
			s.stats.compactDeclined.Add(1)
			budget--
			// Take the replacement back; if the client freed it despite
			// declining (protocol breach), Free already reclaimed it.
			if s.owners[fresh].CompareAndSwap(int32(c.id)+1, 0) {
				s.reclaim(fresh)
			}
			continue
		}
		// The client adopted new. Take old back: after this CAS the
		// client can no longer Free(old), so the loan entry and mirror
		// can be settled race-free before the frame re-enters supply.
		if s.owners[old].CompareAndSwap(int32(c.id)+1, 0) {
			if s.rungOf[old].Swap(0) != 0 {
				s.loanMu.Lock()
				delete(s.loans, old)
				s.loanMu.Unlock()
			}
			s.reclaim(old)
		}
		res.Moved++
		s.stats.compactMoved.Add(1)
		budget--
	}
	return res
}

// allocPreferredFor reserves one preferred-placement frame for c
// without walking the borrow ladder: parked frames matching a colored
// client's claim, or a local zone frame for an uncolored one. The
// compactor never shatters blocks — refill pressure belongs to the
// allocation path; compaction only recycles supply that frees have
// already parked.
func (s *Server) allocPreferredFor(c *Client) (phys.Frame, bool) {
	if !c.usingBank && !c.usingLLC {
		sh := s.shards[c.nodeOrder[0]]
		sh.zoneMu.Lock()
		f, err := sh.zone.Alloc(0)
		sh.zoneMu.Unlock()
		if err != nil {
			return 0, false
		}
		return sh.base + f, true
	}
	seq := c.cursor.Add(1) - 1
	if c.usingBank {
		// Try every shard holding one of the client's bank colors,
		// starting from the cursor-routed one.
		start := s.routeShard(c, seq)
		if f, ok := start.popMatch(c, seq); ok {
			return f, true
		}
		for _, sh := range s.shards {
			if sh == start || len(c.banksOn[sh.node]) == 0 {
				continue
			}
			if f, ok := sh.popMatch(c, seq); ok {
				return f, true
			}
		}
		return 0, false
	}
	return s.shards[c.nodeOrder[0]].popMatch(c, seq)
}

// compactor is the per-shard background worker: each kick runs
// budgeted passes until a pass stops making progress, then sleeps
// until the next kick. Started only when Config.CompactBudget > 0.
func (s *Server) compactor(i int) {
	defer s.wg.Done()
	for {
		select {
		case <-s.compactKick[i]:
		case <-s.stop:
			return
		}
		for {
			res := s.CompactShard(i, s.cfg.CompactBudget)
			if res.Moved == 0 {
				break
			}
			select {
			case <-s.stop:
				return
			default:
			}
		}
	}
}

// KickCompact nudges every shard's compaction worker to run a pass.
// Non-blocking: a worker already kicked (or mid-pass) coalesces the
// signal. No-op when compaction is disabled (Config.CompactBudget 0).
func (s *Server) KickCompact() {
	for _, ch := range s.compactKick {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// CompactionEnabled reports whether background compaction workers are
// running.
func (s *Server) CompactionEnabled() bool { return s.compactKick != nil }

// LoanRungMirror returns the rung the flat loan mirror holds for f
// (RungNone when unloaned) — the serve-side analogue of the kernel
// mirror the auditor's check 7 walks against the ledger.
func (s *Server) LoanRungMirror(f phys.Frame) kernel.Rung {
	v := s.rungOf[f].Load()
	if v == 0 {
		return kernel.RungNone
	}
	return kernel.Rung(v - 1)
}
