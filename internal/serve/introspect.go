package serve

import (
	"sort"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

type serverStats struct {
	allocs, frees                atomic.Uint64
	coloredAllocs, defaultAllocs atomic.Uint64
	borrows                      [kernel.NumRungs]atomic.Uint64
}

// Stats is a point-in-time snapshot of serving counters. Counters
// are read individually without a global lock, so a snapshot taken
// under load is approximate; quiesce first for exact numbers.
type Stats struct {
	Allocs        uint64 // successful allocations
	Frees         uint64 // successful frees
	ColoredPages  uint64 // colored allocations at preferred placement
	DefaultAllocs uint64 // uncolored allocations
	Borrows       [kernel.NumRungs]uint64
	Loans         int    // currently outstanding below-preferred frames
	Refills       uint64 // block shatters across all shards
	RefillFrames  uint64 // frames moved zone -> color lists
	Batches       uint64 // misses served; equal to BatchedReqs
	BatchedReqs   uint64 // misses served; equal to Batches
	Rejected      uint64 // ErrBusy rejections (backpressure)
	Parked        uint64 // frames currently on color lists
	FreeFrames    uint64 // frames currently in buddy zones
}

// DegradedAllocs sums the borrow rungs.
func (st Stats) DegradedAllocs() uint64 {
	var n uint64
	for _, b := range st.Borrows {
		n += b
	}
	return n
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Allocs:        s.stats.allocs.Load(),
		Frees:         s.stats.frees.Load(),
		ColoredPages:  s.stats.coloredAllocs.Load(),
		DefaultAllocs: s.stats.defaultAllocs.Load(),
		Loans:         int(s.loans.Load()),
	}
	for i := range st.Borrows {
		st.Borrows[i] = s.stats.borrows[i].Load()
	}
	for _, sh := range s.shards {
		st.Refills += sh.refills.Load()
		st.RefillFrames += sh.refillFrames.Load()
		st.Batches += sh.misses.Load()
		st.Rejected += sh.rejected.Load()
		st.Parked += uint64(sh.parkedN.Load())
		sh.zoneMu.Lock()
		st.FreeFrames += sh.zone.FreeFrames()
		sh.zoneMu.Unlock()
	}
	// Each miss is served alone, so a batch is one request.
	st.BatchedReqs = st.Batches
	return st
}

// The accessors below exist for invariant.AuditServer and tests.
// They take the relevant locks bucket by bucket, so a coherent
// machine-wide snapshot requires the server to be quiescent (no
// concurrent Alloc/Free) — the same contract as kernel.Visit*.

// Mapping returns the physical mapping the server runs over.
func (s *Server) Mapping() *phys.Mapping { return s.mapping }

// Topology returns the machine topology.
func (s *Server) Topology() *topology.Topology { return s.topo }

// NumShards returns the shard count (one per NUMA node).
func (s *Server) NumShards() int { return len(s.shards) }

// ShardNode returns the NUMA node shard i serves.
func (s *Server) ShardNode(i int) int { return s.shards[i].node }

// ShardBankColors returns a copy of the bank colors shard i owns.
func (s *Server) ShardBankColors(i int) []int {
	return s.mapping.BankColorsOfNode(s.shards[i].node)
}

// VisitShardFree visits shard i's buddy free blocks with
// zone-relative heads translated to global frame numbers.
func (s *Server) VisitShardFree(i int, fn func(head phys.Frame, order int)) {
	sh := s.shards[i]
	sh.zoneMu.Lock()
	sh.zone.VisitFreeBlocks(func(head phys.Frame, order int) {
		fn(sh.base+head, order)
	})
	sh.zoneMu.Unlock()
}

// VisitShardBuckets visits every color bucket of shard i in bucket
// order with its global bank color and LLC color, its parked frames
// (oldest first; pops take from the end), and its occupancy bit. The
// frames and the bit are read together under the bucket's stripe;
// the frames slice is reused between calls, so fn must not retain it.
func (s *Server) VisitShardBuckets(i int, fn func(bc, lc int, frames []phys.Frame, occupied bool)) {
	sh := s.shards[i]
	var frames []phys.Frame
	// The outer slice is immutable after newShard; each bucket is read
	// under its stripe below.
	for b := range sh.lists { //tintvet:ignore guardedby: outer slice immutable after construction; buckets copied under their stripe
		bc, lc := sh.bankLo+b/sh.nLLC, b%sh.nLLC
		mu := &sh.stripes[b%numStripes]
		mu.Lock()
		frames = append(frames[:0], sh.lists[b]...)
		occupied := sh.Occupied(bc, lc)
		mu.Unlock()
		fn(bc, lc, frames, occupied)
	}
}

// VisitOutstanding visits every handed-out frame in ascending frame
// order with the owning client's ID.
func (s *Server) VisitOutstanding(fn func(f phys.Frame, clientID int)) {
	for f := range s.owners {
		if o := s.owners[f].Load(); o != 0 {
			fn(phys.Frame(f), int(o)-1)
		}
	}
}

// ColoredFrame reports whether the colored allocator owns frame f
// (parked on a color list, or handed out through one).
func (s *Server) ColoredFrame(f phys.Frame) bool { return s.colored[f].Load() }

// LoanRung returns the rung frame f is on loan from (RungNone when it
// is not on loan).
func (s *Server) LoanRung(f phys.Frame) kernel.Rung {
	return kernel.Rung(s.rungOf[f].Load() - 1)
}

// VisitLoans visits every loan mark in ascending frame order with the
// holder's client ID (-1 when no client holds the frame, which only a
// corrupt mark can produce).
func (s *Server) VisitLoans(fn func(f phys.Frame, clientID int, rung kernel.Rung)) {
	for f := range s.rungOf {
		if v := s.rungOf[f].Load(); v != 0 {
			fn(phys.Frame(f), int(s.owners[f].Load())-1, kernel.Rung(v-1))
		}
	}
}

// Clients returns the live clients — registered and not yet closed —
// in registration (ID) order.
func (s *Server) Clients() []*Client {
	s.clientMu.Lock()
	out := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients { //tintvet:ignore maporder: sorted by ID below
		out = append(out, c)
	}
	s.clientMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ClaimCounts returns how many live clients the server counts as
// claiming each bank color and each LLC color — the counts the borrow
// ladder's unassigned rung consults.
func (s *Server) ClaimCounts() (bank, llc []int) {
	bank = make([]int, len(s.assignedBank))
	for i := range bank {
		bank[i] = int(s.assignedBank[i].Load())
	}
	llc = make([]int, len(s.assignedLLC))
	for i := range llc {
		llc[i] = int(s.assignedLLC[i].Load())
	}
	return bank, llc
}
