package serve

import (
	"fmt"
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
	words   int      // occupancy words per row: ceil(nLLC/64)
	allLLC  []uint64 // a row mask with every LLC color's bit set
	banks   []int    // global bank colors owned, sorted
	localOf []int    // global bank color -> index in banks, -1 if foreign

	// lists[li*nLLC+lc] is the LIFO stack of parked frames with the
	// shard's li-th bank color and LLC color lc — the node's slice of
	// the paper's color_list matrix. Bucket b is guarded by
	// stripes[b%len(stripes)]; lock order is zoneMu before stripeMu,
	// and no path holds two stripes at once.
	stripes []sync.Mutex
	lists   [][]phys.Frame //tintvet:guardedby stripes
	parkedN atomic.Int64

	// occ is the occupancy index over lists, in the kernel's row
	// layout: one row of words per local bank color, and bit lc%64 of
	// occ[li*words+lc/64] is set exactly while bucket (li, lc) holds
	// frames. It is bucket state, written only under the bucket's
	// stripe (atomic.OrUint64/AndUint64) as the bucket turns non-empty
	// or empty, and read without a lock as a hint: a clear bit lets a
	// probe skip the bucket, a set bit is re-checked under the stripe.
	// A frame always parks under its own colors, so a (bank, LLC) pair
	// no frame carries keeps its bit clear forever.
	occ []uint64

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
	nLLC := m.NumLLCColors()
	nb := len(banks) * nLLC
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
	words := (nLLC + 63) / 64
	all := make([]uint64, words)
	for lc := 0; lc < nLLC; lc++ {
		all[lc>>6] |= 1 << (lc & 63)
	}
	return &shard{
		node:    node,
		base:    base,
		zone:    zone,
		nLLC:    nLLC,
		words:   words,
		allLLC:  all,
		banks:   banks,
		localOf: localOf,
		stripes: make([]sync.Mutex, cfg.Stripes),
		lists:   make([][]phys.Frame, nb),
		occ:     make([]uint64, len(banks)*words),
	}, nil
}

// llcMask returns the LLC colors lcs as a row mask of the given
// width, the layout of the shards' occupancy rows.
func llcMask(words int, lcs []int) []uint64 {
	mask := make([]uint64, words)
	for _, lc := range lcs {
		mask[lc>>6] |= 1 << (lc & 63)
	}
	return mask
}

// park pushes a colored frame onto its (bank, LLC) bucket. The frame
// must belong to this shard's node.
func (sh *shard) park(f phys.Frame, s *Server) {
	li := sh.localOf[s.mapping.FrameBankColor(f)]
	lc := s.mapping.FrameLLCColor(f)
	b := li*sh.nLLC + lc
	mu := &sh.stripes[b%len(sh.stripes)]
	mu.Lock()
	if len(sh.lists[b]) == 0 {
		atomic.OrUint64(&sh.occ[li*sh.words+lc>>6], 1<<(lc&63))
	}
	sh.lists[b] = append(sh.lists[b], f)
	mu.Unlock()
	sh.parkedN.Add(1)
}

// occupied reads bucket (li, lc)'s occupancy bit without a lock.
func (sh *shard) occupied(li, lc int) bool {
	return atomic.LoadUint64(&sh.occ[li*sh.words+lc>>6])&(1<<(lc&63)) != 0
}

// popBucket pops the most recently parked frame of bucket (li, lc)
// (the kernel's LIFO order, so a lone client sees identical placement
// to the sequential simulator). It re-checks the bucket under its
// stripe: false means the bucket is empty, perhaps emptied by a
// racing pop after the caller read its bit.
func (sh *shard) popBucket(li, lc int) (phys.Frame, bool) {
	b := li*sh.nLLC + lc
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
		atomic.AndUint64(&sh.occ[li*sh.words+lc>>6], ^uint64(1<<(lc&63)))
	}
	mu.Unlock()
	sh.parkedN.Add(-1)
	return f, true
}

// popRow pops from the first occupied bucket of local bank li whose
// LLC color is in mask and in [lo, hi), in ascending LLC color order.
// A bucket a racing pop emptied is passed, and the scan goes on.
func (sh *shard) popRow(li int, mask []uint64, lo, hi int) (phys.Frame, bool) {
	row := sh.occ[li*sh.words : (li+1)*sh.words]
	for lc := kernel.FirstInRow(row, mask, lo, hi); lc >= 0; lc = kernel.FirstInRow(row, mask, lc+1, hi) {
		if f, ok := sh.popBucket(li, lc); ok {
			return f, true
		}
	}
	return 0, false
}

// popColumn pops a frame of LLC color lc, testing the bit of each
// local bank from index from upward, wrapping.
func (sh *shard) popColumn(lc, from int) (phys.Frame, bool) {
	li := from
	for range sh.banks {
		if sh.occupied(li, lc) {
			if f, ok := sh.popBucket(li, lc); ok {
				return f, true
			}
		}
		if li++; li == len(sh.banks) {
			li = 0
		}
	}
	return 0, false
}

// popMatch pops a parked frame matching the client's color claim,
// rotating the starting combination by seq so successive allocations
// spread across the claim exactly as the kernel's comboCursor does.
// Each walk visits the claim's buckets in the order of a probe per
// combination, but reads one masked occupancy row per bank color (or
// one bit per bank, for an LLC-only claim) and skips every empty
// bucket, including the (bank, LLC) pairs an overlapped mapping never
// populates (DESIGN.md Sec. 11.2).
func (sh *shard) popMatch(c *Client, seq uint64) (phys.Frame, bool) {
	switch {
	case c.usingBank && c.usingLLC:
		// The combination index k = bi*nl + j names (banks[bi],
		// llcColors[j]); a probe per k from start, wrapping, is
		// ascending LLC color within ascending bank. So the walk is
		// nb+1 row visits: the start row from the start color, every
		// other row, then the start row again below the start color.
		banks := c.banksOn[sh.node]
		nb, nl := len(banks), len(c.llcColors)
		if nb == 0 {
			return 0, false
		}
		start := int(seq % uint64(nb*nl))
		bi, from := start/nl, c.llcColors[start%nl]
		lo, hi := from, sh.nLLC
		for left := nb; left >= 0; left-- {
			if left == 0 {
				hi = from
			}
			if f, ok := sh.popRow(sh.localOf[banks[bi]], c.llcMask, lo, hi); ok {
				return f, true
			}
			lo = 0
			if bi++; bi == nb {
				bi = 0
			}
		}
	case c.usingBank:
		banks := c.banksOn[sh.node]
		if len(banks) == 0 {
			return 0, false
		}
		bi := int(seq % uint64(len(banks)))
		ls := int(seq % uint64(sh.nLLC))
		for range banks {
			li := sh.localOf[banks[bi]]
			if f, ok := sh.popRow(li, sh.allLLC, ls, sh.nLLC); ok {
				return f, true
			}
			if f, ok := sh.popRow(li, sh.allLLC, 0, ls); ok {
				return f, true
			}
			if bi++; bi == len(banks) {
				bi = 0
			}
		}
	default: // LLC-only claim, served on the client's local shard
		nl := len(c.llcColors)
		i := int(seq % uint64(nl))
		bs := int(seq % uint64(len(sh.banks)))
		for range nl {
			if f, ok := sh.popColumn(c.llcColors[i], bs); ok {
				return f, true
			}
			if i++; i == nl {
				i = 0
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
		if f, ok := sh.popRow(li, c.llcMask, 0, sh.nLLC); ok {
			return f, true
		}
		if f, ok := sh.popRow(li, sh.allLLC, 0, sh.nLLC); ok {
			return f, true
		}
	}
	for lc := 0; lc < sh.nLLC; lc++ {
		if s.assignedLLC[lc].Load() != 0 {
			continue
		}
		if f, ok := sh.popColumn(lc, 0); ok {
			return f, true
		}
	}
	return 0, false
}

// popAnyParked pops any parked frame regardless of color — the
// ladder's uncolored rungs, spending a colored page when the zones
// are dry. It walks the occupied buckets in ascending bucket order,
// row by row.
func (sh *shard) popAnyParked() (phys.Frame, bool) {
	for li := range sh.banks {
		if f, ok := sh.popRow(li, sh.allLLC, 0, sh.nLLC); ok {
			return f, true
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
