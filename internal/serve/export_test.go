package serve

// ClearOccupancyBit clears the occupancy bit of shard i's (bc, lc)
// bucket and leaves its frames in place — the corruption that strands
// a bucket, which the auditor must name.
func (s *Server) ClearOccupancyBit(i, bc, lc int) {
	sh := s.shards[i]
	b := sh.localOf[bc]*sh.nLLC + lc
	mu := &sh.stripes[b%len(sh.stripes)]
	mu.Lock()
	sh.occ[b/64].And(^(1 << (b % 64)))
	mu.Unlock()
}
