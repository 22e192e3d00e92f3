package serve

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// shard is one NUMA node's slice of the serving layer: the node's
// buddy zone plus the node's columns of the color matrix as
// lock-striped LIFO page stacks. Bank colors are node-disjoint
// (phys.NodeOfBankColor), so no two shards ever hold a bucket for
// the same (bank, LLC) pair and a frame always parks on exactly one
// shard — the disjointness that makes sharding safe.
type shard struct {
	node int
	base phys.Frame // global frame number of the zone's first frame

	zoneMu sync.Mutex
	zone   *buddy.Allocator //tintvet:guardedby zoneMu -- frames are zone-relative; add base

	nLLC    int
	banks   []int // global bank colors owned, sorted
	localOf []int // global bank color -> index in banks, -1 if foreign

	// lists[li*nLLC+lc] is the LIFO stack of parked frames with the
	// shard's li-th bank color and LLC color lc — the node's slice of
	// the paper's color_list matrix. Bucket b is guarded by
	// stripes[b%len(stripes)]; lock order is zoneMu before stripeMu,
	// and no path holds two stripes at once.
	stripes []sync.Mutex
	lists   [][]phys.Frame //tintvet:guardedby stripes
	parkedN atomic.Int64

	// occ is the occupancy index over lists: bit b%64 of occ[b/64] is
	// set exactly while bucket b holds frames. It is bucket state,
	// written only under bucket b's stripe as the bucket turns
	// non-empty or empty, and read without a lock as a hint: a clear
	// bit lets a probe skip the bucket, a set bit is re-checked under
	// the stripe. A frame always parks under its own colors, so a
	// (bank, LLC) pair no frame carries keeps its bit clear forever.
	occ []atomic.Uint64

	// pending counts the misses being served on the shard right now
	// and is capped at HighWater.
	pending atomic.Int32

	refills      atomic.Uint64 // block shatters (Algorithm 2 calls)
	refillFrames atomic.Uint64 // frames moved zone -> color lists
	misses       atomic.Uint64 // misses served (past the HighWater check)
	rejected     atomic.Uint64 // ErrBusy rejections
}

func newShard(node int, base phys.Frame, zone *buddy.Allocator, m *phys.Mapping, cfg Config) (*shard, error) {
	banks := m.BankColorsOfNode(node)
	nb := len(banks) * m.NumLLCColors()
	// A stripe past the bucket count guards nothing; a huge count
	// would only exhaust memory on the mutex array.
	if cfg.Stripes > nb {
		return nil, fmt.Errorf("serve: %d stripes exceed node %d's %d color buckets", cfg.Stripes, node, nb)
	}
	localOf := make([]int, m.NumBankColors())
	for i := range localOf {
		localOf[i] = -1
	}
	for i, bc := range banks {
		localOf[bc] = i
	}
	return &shard{
		node:    node,
		base:    base,
		zone:    zone,
		nLLC:    m.NumLLCColors(),
		banks:   banks,
		localOf: localOf,
		stripes: make([]sync.Mutex, cfg.Stripes),
		lists:   make([][]phys.Frame, nb),
		occ:     make([]atomic.Uint64, (nb+63)/64),
	}, nil
}

// park pushes a colored frame onto its (bank, LLC) bucket. The frame
// must belong to this shard's node.
func (sh *shard) park(f phys.Frame, s *Server) {
	bc := s.mapping.FrameBankColor(f)
	lc := s.mapping.FrameLLCColor(f)
	b := sh.localOf[bc]*sh.nLLC + lc
	mu := &sh.stripes[b%len(sh.stripes)]
	mu.Lock()
	if len(sh.lists[b]) == 0 {
		sh.occ[b/64].Or(1 << (b % 64))
	}
	sh.lists[b] = append(sh.lists[b], f)
	mu.Unlock()
	sh.parkedN.Add(1)
}

// occupied reads bucket b's occupancy bit without a lock.
func (sh *shard) occupied(b int) bool {
	return sh.occ[b/64].Load()&(1<<(b%64)) != 0
}

// popBucket pops the most recently parked frame of bucket b (the
// kernel's LIFO order, so a lone client sees identical placement to
// the sequential simulator). An empty bucket costs one atomic load.
func (sh *shard) popBucket(b int) (phys.Frame, bool) {
	if !sh.occupied(b) {
		return 0, false
	}
	mu := &sh.stripes[b%len(sh.stripes)]
	mu.Lock()
	l := sh.lists[b]
	if len(l) == 0 {
		mu.Unlock()
		return 0, false
	}
	f := l[len(l)-1]
	sh.lists[b] = l[:len(l)-1]
	if len(l) == 1 {
		sh.occ[b/64].And(^(1 << (b % 64)))
	}
	mu.Unlock()
	sh.parkedN.Add(-1)
	return f, true
}

// popMatch pops a parked frame matching the client's color claim,
// rotating the starting combination by seq so successive allocations
// spread across the claim exactly as the kernel's comboCursor does.
// Under an overlapped mapping some of the claim's (bank, LLC) pairs
// hold no frame at all; their buckets stay unoccupied, so the walk
// passes them at the cost of one load each.
func (sh *shard) popMatch(c *Client, seq uint64) (phys.Frame, bool) {
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
			if f, ok := sh.popBucket(sh.localOf[bc]*sh.nLLC + lc); ok {
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
			li := sh.localOf[banks[(start+i)%len(banks)]]
			ls := int(seq % uint64(sh.nLLC))
			for j := 0; j < sh.nLLC; j++ {
				if f, ok := sh.popBucket(li*sh.nLLC + (ls+j)%sh.nLLC); ok {
					return f, true
				}
			}
		}
	default: // LLC-only claim, served on the client's local shard
		nl := len(c.llcColors)
		ls := int(seq % uint64(nl))
		for i := 0; i < nl; i++ {
			lc := c.llcColors[(ls+i)%nl]
			bs := int(seq % uint64(len(sh.banks)))
			for j := range sh.banks {
				li := (bs + j) % len(sh.banks)
				if f, ok := sh.popBucket(li*sh.nLLC + lc); ok {
					return f, true
				}
			}
		}
	}
	return 0, false
}

// popUnassigned pops a parked frame whose color no client claims —
// the ladder's borrow-a-color rung. Bank-unassigned buckets are
// preferred with the client's own LLC colors first (keeping its
// cache slice), mirroring kernel.popUnassigned.
func (sh *shard) popUnassigned(c *Client, s *Server) (phys.Frame, bool) {
	for li, bc := range sh.banks {
		if s.assignedBank[bc].Load() != 0 {
			continue
		}
		for _, lc := range c.llcColors {
			if f, ok := sh.popBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
		for lc := 0; lc < sh.nLLC; lc++ {
			if f, ok := sh.popBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
	}
	for lc := 0; lc < sh.nLLC; lc++ {
		if s.assignedLLC[lc].Load() != 0 {
			continue
		}
		for li := range sh.banks {
			if f, ok := sh.popBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// popAnyParked pops any parked frame regardless of color — the
// ladder's uncolored rungs, spending a colored page when the zones
// are dry. It walks the occupied buckets in ascending bucket order.
func (sh *shard) popAnyParked() (phys.Frame, bool) {
	for w := range sh.occ {
		for set := sh.occ[w].Load(); set != 0; set &= set - 1 {
			if f, ok := sh.popBucket(w*64 + bits.TrailingZeros64(set)); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// serveMiss serves a color-list miss in the caller's goroutine, as
// the paper's kernel runs create_color_list (Algorithm 2) inside the
// faulting task's page-fault path: under zoneMu it re-tries the lists
// (another client's shatter may have parked a match) and shatters one
// more block while nothing matches; the zone dry, it drops zoneMu and
// walks the borrow ladder, which locks other shards. Past HighWater
// concurrent misses on the shard it rejects at once with ErrBusy.
func (sh *shard) serveMiss(c *Client, seq uint64, s *Server) (phys.Frame, kernel.Rung, error) {
	if sh.pending.Add(1) > int32(s.cfg.HighWater) {
		sh.pending.Add(-1)
		sh.rejected.Add(1)
		return 0, kernel.RungNone, ErrBusy
	}
	defer sh.pending.Add(-1)
	sh.misses.Add(1)
	sh.zoneMu.Lock()
	f, ok := sh.popMatch(c, seq)
	for !ok && sh.shatterLocked(s) {
		f, ok = sh.popMatch(c, seq)
	}
	sh.zoneMu.Unlock()
	if ok {
		return f, kernel.RungNone, nil
	}
	if f, rung, ok := s.borrow(c, sh); ok {
		return f, rung, nil
	}
	return 0, kernel.RungNone, ErrNoMemory
}

// shatterLocked (zoneMu held) breaks the smallest free block into
// single pages on their color lists — one create_color_list step of
// Algorithm 2, walking orders low to high exactly as the kernel's
// refill loop does. Reports false when the zone is dry.
func (sh *shard) shatterLocked(s *Server) bool {
	for ord := 0; ord <= buddy.MaxOrder; ord++ {
		head, ok := sh.zone.AllocExact(ord)
		if !ok {
			continue
		}
		sh.refills.Add(1)
		n := phys.Frame(1) << uint(ord)
		for f := sh.base + head; f < sh.base+head+n; f++ {
			s.colored[f].Store(true)
			sh.park(f, s)
		}
		sh.refillFrames.Add(uint64(n))
		return true
	}
	return false
}
