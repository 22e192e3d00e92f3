package serve

import (
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// ClearOccupancyBit clears the occupancy bit of shard i's (bc, lc)
// bucket and leaves its frames in place — the corruption that strands
// a bucket, which the auditor must name.
func (s *Server) ClearOccupancyBit(i, bc, lc int) {
	sh := s.shards[i]
	mu := &sh.stripes[sh.bucket(bc, lc)%numStripes]
	mu.Lock()
	sh.Clear(bc, lc)
	mu.Unlock()
}

// MarkLoan puts a rung mark on frame f and counts it in the loan
// gauge without touching ownership — the stale loan a Free that
// forgot to settle it would leave, which the auditor must name.
func (s *Server) MarkLoan(f phys.Frame, rung kernel.Rung) {
	s.rungOf[f].Store(int32(rung) + 1)
	s.loans.Add(1)
}

// SkewLoanGauge moves the loan gauge by d and leaves every mark in
// place.
func (s *Server) SkewLoanGauge(d int64) { s.loans.Add(d) }
