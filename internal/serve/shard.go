package serve

import (
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
//
// The embedded Rows is the occupancy index over the buckets, in the
// kernel's row layout, and its finders are the shard's walks. A bit
// is bucket state, written only under the bucket's stripe as the
// bucket turns non-empty or empty, and read without a lock as a hint:
// a clear bit lets a walk skip the bucket, a set one is re-checked
// under the stripe, and a bucket a racing pop emptied sends the
// caller back to the finder. A frame always parks under its own
// colors, so a (bank, LLC) pair no frame carries keeps its bit clear
// forever.
type shard struct {
	kernel.Rows
	node int
	base phys.Frame // global frame number of the zone's first frame

	zoneMu sync.Mutex
	zone   *buddy.Allocator //tintvet:guardedby zoneMu -- frames are zone-relative; add base

	nLLC   int
	bankLo int // the first bank color of the node; bucket rows are bc-bankLo
	nBanks int

	// lists[(bc-bankLo)*nLLC+lc] is the LIFO stack of parked frames
	// with bank color bc and LLC color lc — the node's slice of the
	// paper's color_list matrix. Bucket b is guarded by
	// stripes[b%numStripes]; lock order is zoneMu before stripeMu, and no
	// path holds two stripes at once.
	stripes [numStripes]sync.Mutex
	lists   [][]phys.Frame //tintvet:guardedby stripes
	parkedN atomic.Int64
	// parks counts every park, so a miss can tell whether anything
	// was parked since its fast path found nothing.
	parks atomic.Uint64

	// pending counts the misses being served on the shard right now
	// and is capped at HighWater.
	pending atomic.Int32

	refills      atomic.Uint64 // block shatters (Algorithm 2 calls)
	refillFrames atomic.Uint64 // frames moved zone -> color lists
	misses       atomic.Uint64 // misses served (past the HighWater check)
	rejected     atomic.Uint64 // ErrBusy rejections
}

// numStripes is the number of lock stripes over each shard's color
// buckets (DESIGN.md Sec. 11.2).
const numStripes = 16

func newShard(node int, base phys.Frame, zone *buddy.Allocator, m *phys.Mapping) *shard {
	per, nLLC := m.BanksPerNode(), m.NumLLCColors()
	return &shard{
		Rows:   kernel.NewRows(node*per, per, per, nLLC),
		node:   node,
		base:   base,
		zone:   zone,
		nLLC:   nLLC,
		bankLo: node * per,
		nBanks: per,
		lists:  make([][]phys.Frame, per*nLLC),
	}
}

// bucket returns the index of bucket (bc, lc) in lists.
func (sh *shard) bucket(bc, lc int) int { return (bc-sh.bankLo)*sh.nLLC + lc }

// park pushes a colored frame onto its (bank, LLC) bucket. The frame
// must belong to this shard's node.
func (sh *shard) park(f phys.Frame, s *Server) {
	bc, lc := s.mapping.FrameBankColor(f), s.mapping.FrameLLCColor(f)
	b := sh.bucket(bc, lc)
	mu := &sh.stripes[b%numStripes]
	mu.Lock()
	if len(sh.lists[b]) == 0 {
		sh.Set(bc, lc)
	}
	sh.lists[b] = append(sh.lists[b], f)
	mu.Unlock()
	sh.parkedN.Add(1)
	sh.parks.Add(1)
}

// popBucket pops the most recently parked frame of bucket (bc, lc)
// (the kernel's LIFO order, so a lone client sees identical placement
// to the sequential simulator). It re-checks the bucket under its
// stripe: false means the bucket is empty, perhaps emptied by a
// racing pop after the caller's finder read its bit.
func (sh *shard) popBucket(bc, lc int) (phys.Frame, bool) {
	b := sh.bucket(bc, lc)
	mu := &sh.stripes[b%numStripes]
	mu.Lock()
	l := sh.lists[b]
	if len(l) == 0 {
		mu.Unlock()
		return 0, false
	}
	f := l[len(l)-1]
	sh.lists[b] = l[:len(l)-1]
	if len(l) == 1 {
		sh.Clear(bc, lc)
	}
	mu.Unlock()
	sh.parkedN.Add(-1)
	return f, true
}

// popMatch pops a parked frame matching the client's color claim:
// the bucket Rows.Next finds from a cursor rotated by seq, so
// successive allocations spread across the claim exactly as the
// kernel's comboCursor does.
func (sh *shard) popMatch(c *Client, seq uint64) (phys.Frame, bool) {
	banks := c.banksOn[sh.node]
	var i, j int
	switch {
	case c.usingBank && len(banks) == 0:
		return 0, false
	case c.usingBank && c.usingLLC:
		// The combination index k = bi*nl + jl names (banks[bi],
		// llcColors[jl]); the walk starts at k = seq mod nb*nl.
		nl := len(c.llcColors)
		k := int(seq % uint64(len(banks)*nl))
		i, j = k/nl, c.llcColors[k%nl]
	case c.usingBank:
		i, j = int(seq%uint64(len(banks))), int(seq%uint64(sh.nLLC))
	default: // LLC-only claim, served on the client's local shard
		i, j = int(seq%uint64(len(c.llcColors))), int(seq%uint64(sh.nBanks))
	}
	for {
		_, bc, lc := sh.Next(banks, c.llcColors, c.llcMask, []int{sh.node}, i, j)
		if bc < 0 {
			return 0, false
		}
		if f, ok := sh.popBucket(bc, lc); ok {
			return f, true
		}
	}
}

// popUnassigned pops the parked frame Rows.Borrow lends the client —
// the ladder's Lend, under the kernel's rule: a bank color no client
// claims for bank-colored clients, an LLC color no client claims for
// LLC-only ones.
func (sh *shard) popUnassigned(c *Client, s *Server) (phys.Frame, bool) {
	for {
		bc, lc := sh.Borrow(sh.node, c.usingBank, c.llcMask, 0, s.assignedBank, s.assignedLLC)
		if bc < 0 {
			return 0, false
		}
		if f, ok := sh.popBucket(bc, lc); ok {
			return f, true
		}
	}
}

// popAnyParked pops any parked frame regardless of color — the
// ladder's Parked: the newest frame of the first occupied bucket.
func (sh *shard) popAnyParked() (phys.Frame, bool) {
	for {
		bc, lc := sh.First(sh.node)
		if bc < 0 {
			return 0, false
		}
		if f, ok := sh.popBucket(bc, lc); ok {
			return f, true
		}
	}
}

// serveMiss serves a color-list miss in the caller's goroutine, as
// the paper's kernel runs create_color_list (Algorithm 2) inside the
// faulting task's page-fault path: under zoneMu it re-tries the lists
// if anything was parked since the fast path read the park count
// parks (another client's shatter or free may have parked a match),
// and shatters one more block while nothing matches; the zone dry, it
// drops zoneMu and walks the ladder (kernel.Ladder), which locks one
// shard at a time.
// Past HighWater concurrent misses on the shard it rejects at once
// with ErrBusy.
func (sh *shard) serveMiss(c *Client, seq, parks uint64, s *Server) (phys.Frame, kernel.Rung, error) {
	if sh.pending.Add(1) > int32(s.cfg.HighWater) {
		sh.pending.Add(-1)
		sh.rejected.Add(1)
		return 0, kernel.RungNone, ErrBusy
	}
	defer sh.pending.Add(-1)
	sh.misses.Add(1)
	sh.zoneMu.Lock()
	var f phys.Frame
	var ok bool
	if sh.parks.Load() != parks {
		f, ok = sh.popMatch(c, seq)
	}
	for !ok && sh.shatterLocked(s) {
		f, ok = sh.popMatch(c, seq)
	}
	sh.zoneMu.Unlock()
	if ok {
		return f, kernel.RungNone, nil
	}
	if f, rung, ok := kernel.Ladder(clientStore{s, c}, c.nodeOrder, true); ok {
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
