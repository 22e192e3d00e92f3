package serve

import "github.com/tintmalloc/tintmalloc/internal/phys"

// The walks below are the shard's colored pops as they were before
// the occupancy rows: a probe per (bank, LLC) bucket, in the order of
// a combination index. Each probe locks its bucket and reads no
// occupancy bit, so the reference cannot inherit a fault of the rows.
// FuzzServePop holds shard.popMatch, popUnassigned and popAnyParked
// to them frame by frame. refPopUnassigned lends on the claim's
// coloring axis only, the kernel's borrow rule.

// refPopBucket pops the newest frame of bucket b, the b-th of the
// shard in (bank, LLC) order, under its stripe.
func (sh *shard) refPopBucket(b int) (phys.Frame, bool) {
	return sh.popBucket(sh.bankLo+b/sh.nLLC, b%sh.nLLC)
}

func (sh *shard) refPopMatch(c *Client, seq uint64) (phys.Frame, bool) {
	switch {
	case c.usingBank && c.usingLLC:
		banks := c.banksOn[sh.node]
		nb, nl := len(banks), len(c.llcColors)
		if nb == 0 {
			return 0, false
		}
		total := nb * nl
		start := int(seq % uint64(total))
		for i := 0; i < total; i++ {
			k := (start + i) % total
			bc := banks[k/nl]
			lc := c.llcColors[k%nl]
			if f, ok := sh.refPopBucket((bc-sh.bankLo)*sh.nLLC + lc); ok {
				return f, true
			}
		}
	case c.usingBank:
		banks := c.banksOn[sh.node]
		if len(banks) == 0 {
			return 0, false
		}
		start := int(seq % uint64(len(banks)))
		for i := range banks {
			li := banks[(start+i)%len(banks)] - sh.bankLo
			ls := int(seq % uint64(sh.nLLC))
			for j := 0; j < sh.nLLC; j++ {
				if f, ok := sh.refPopBucket(li*sh.nLLC + (ls+j)%sh.nLLC); ok {
					return f, true
				}
			}
		}
	default:
		nl := len(c.llcColors)
		ls := int(seq % uint64(nl))
		for i := 0; i < nl; i++ {
			lc := c.llcColors[(ls+i)%nl]
			bs := int(seq % uint64(sh.nBanks))
			for j := range sh.nBanks {
				li := (bs + j) % sh.nBanks
				if f, ok := sh.refPopBucket(li*sh.nLLC + lc); ok {
					return f, true
				}
			}
		}
	}
	return 0, false
}

func (sh *shard) refPopUnassigned(c *Client, s *Server) (phys.Frame, bool) {
	if !c.usingBank {
		for lc := 0; lc < sh.nLLC; lc++ {
			if s.assignedLLC[lc].Load() != 0 {
				continue
			}
			for li := range sh.nBanks {
				if f, ok := sh.refPopBucket(li*sh.nLLC + lc); ok {
					return f, true
				}
			}
		}
		return 0, false
	}
	for li := range sh.nBanks {
		if s.assignedBank[sh.bankLo+li].Load() != 0 {
			continue
		}
		for _, lc := range c.llcColors {
			if f, ok := sh.refPopBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
	}
	for li := range sh.nBanks {
		if s.assignedBank[sh.bankLo+li].Load() != 0 {
			continue
		}
		for lc := 0; lc < sh.nLLC; lc++ {
			if f, ok := sh.refPopBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
	}
	return 0, false
}

func (sh *shard) refPopAnyParked() (phys.Frame, bool) {
	for b := 0; b < sh.nBanks*sh.nLLC; b++ {
		if f, ok := sh.refPopBucket(b); ok {
			return f, true
		}
	}
	return 0, false
}
