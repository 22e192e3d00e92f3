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

	// refillQ carries misses to the shard's worker; pending counts
	// requests enqueued or being served and is capped at HighWater
	// (<= QueueDepth), so the queue send below never blocks.
	refillQ chan *refillReq
	pending atomic.Int32

	refills      atomic.Uint64 // block shatters (Algorithm 2 calls)
	refillFrames atomic.Uint64 // frames moved zone -> color lists
	batches      atomic.Uint64 // worker batches served
	batchedReqs  atomic.Uint64 // requests across those batches
	rejected     atomic.Uint64 // ErrBusy rejections

	// Worker-owned scratch, touched only by the shard's single worker
	// goroutine: the batch buffer and serveBatch's served list grow to
	// BatchMax once and are reused so the refill path allocates
	// nothing per batch at steady state.
	wkBatch []*refillReq
	wkDone  []servedReq
}

// servedReq pairs a refill request with the frame that satisfies it,
// held until zoneMu is released (deliveries must not happen under the
// zone lock; see serveBatch).
type servedReq struct {
	req   *refillReq
	frame phys.Frame
}

type refillResult struct {
	frame phys.Frame
	rung  kernel.Rung
	err   error
}

// refillReq is one client miss waiting on the shard worker. state
// arbitrates the shutdown race between delivery and abandonment:
// 0 = pending, 1 = delivered, 2 = abandoned by the requester. The
// common instance is the client's embedded reusable one (Client.req);
// a fresh request is allocated only when the same client misses from
// two goroutines at once or its slot was poisoned by abandonment.
type refillReq struct {
	c     *Client
	seq   uint64
	state atomic.Int32
	resp  chan refillResult // buffered, capacity 1
}

func newShard(node int, base phys.Frame, zone *buddy.Allocator, m *phys.Mapping, cfg Config) (*shard, error) {
	banks := m.BankColorsOfNode(node)
	localOf := make([]int, m.NumBankColors())
	for i := range localOf {
		localOf[i] = -1
	}
	for i, bc := range banks {
		localOf[bc] = i
	}
	nb := len(banks) * m.NumLLCColors()
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
		refillQ: make(chan *refillReq, cfg.QueueDepth),
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

// requestRefill posts a miss to the shard worker and waits for the
// outcome. Past the high-water mark it rejects immediately with
// ErrBusy — bounded queues, not unbounded latency.
func (sh *shard) requestRefill(c *Client, seq uint64, s *Server) (phys.Frame, kernel.Rung, error) {
	if sh.pending.Add(1) > int32(s.cfg.HighWater) {
		sh.pending.Add(-1)
		sh.rejected.Add(1)
		return 0, kernel.RungNone, ErrBusy
	}
	// Reuse the client's embedded request — the miss path stays
	// allocation-free. The CAS only fails when the same client misses
	// concurrently from another goroutine (or the slot was poisoned at
	// shutdown); that rare overlap pays for a fresh request.
	req := &c.req
	reused := c.reqBusy.CompareAndSwap(false, true)
	if reused {
		req.seq = seq
		req.state.Store(0)
	} else {
		req = &refillReq{c: c, seq: seq, resp: make(chan refillResult, 1)}
	}
	select {
	case sh.refillQ <- req:
	case <-s.stop:
		sh.pending.Add(-1)
		if reused {
			c.reqBusy.Store(false)
		}
		return 0, kernel.RungNone, ErrClosed
	}
	select {
	case res := <-req.resp:
		if reused {
			c.reqBusy.Store(false)
		}
		return res.frame, res.rung, res.err
	case <-s.stop:
		// Closing. If the worker has not picked the request up yet,
		// abandon it (the worker's drain reclaims any frame it was
		// about to hand us); if it has, take the delivered result.
		// An abandoned reusable slot stays poisoned (reqBusy set):
		// the worker still holds the pointer, and recycling it could
		// let a stale delivery land in a future request's channel.
		if req.state.CompareAndSwap(0, 2) {
			return 0, kernel.RungNone, ErrClosed
		}
		res := <-req.resp
		if reused {
			c.reqBusy.Store(false)
		}
		return res.frame, res.rung, res.err
	}
}

// deliver resolves a request: hand the result to the requester, or —
// if the requester abandoned it at shutdown — return the frame to
// its shard so nothing leaks.
func (r *refillReq) deliver(sh *shard, s *Server, f phys.Frame, rung kernel.Rung, err error) {
	sh.pending.Add(-1)
	if r.state.CompareAndSwap(0, 1) {
		r.resp <- refillResult{frame: f, rung: rung, err: err}
		return
	}
	if err == nil {
		s.reclaim(f)
	}
}

// reclaim returns an unowned frame to its home shard: parked if the
// colored allocator owns it, buddy zone otherwise. The frame is held
// exclusively by the caller, so a buddy rejection can only mean the
// server's ownership bookkeeping is corrupt — fail loudly rather
// than leak the frame silently.
func (s *Server) reclaim(f phys.Frame) {
	sh := s.shards[s.mapping.NodeOfFrame(f)]
	if s.colored[f].Load() {
		sh.park(f, s)
		return
	}
	sh.zoneMu.Lock()
	err := sh.zone.Free(f-sh.base, 0)
	sh.zoneMu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("serve: reclaim of exclusively-held frame %d rejected: %v", f, err))
	}
}

// worker is the shard's refill goroutine: it drains misses in
// batches of up to BatchMax and serves each batch with as few block
// shatters as possible.
func (sh *shard) worker(s *Server) {
	defer s.wg.Done()
	sh.wkBatch = make([]*refillReq, 0, s.cfg.BatchMax)
	for {
		var first *refillReq
		select {
		case first = <-sh.refillQ:
		case <-s.stop:
			sh.drainClosed(s)
			return
		}
		batch := append(sh.wkBatch[:0], first)
		for len(batch) < s.cfg.BatchMax {
			select {
			case r := <-sh.refillQ:
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		sh.wkBatch = batch
		sh.batches.Add(1)
		sh.batchedReqs.Add(uint64(len(batch)))
		sh.serveBatch(s, batch)
		// Drop the request pointers so served refills don't pin their
		// clients between batches.
		clear(batch)
	}
}

// drainClosed fails every queued request after Close.
func (sh *shard) drainClosed(s *Server) {
	for {
		select {
		case req := <-sh.refillQ:
			req.deliver(sh, s, 0, kernel.RungNone, ErrClosed)
		default:
			return
		}
	}
}

// serveBatch amortizes refills across a batch: re-try the color
// lists for every waiter (an earlier shatter may have parked their
// color), shatter one more block when someone is still empty-handed,
// and repeat until the batch is served or the zone is dry. Whoever
// the zone cannot serve walks the borrow ladder — after the zone
// lock is dropped, since the ladder locks other shards.
//
// Deliveries happen strictly after zoneMu is released: deliver blocks
// on the response channel's buffer and, when the requester abandoned
// the request at shutdown, re-enters the zone through s.reclaim —
// either one under zoneMu is a deadlock (reclaim relocks zoneMu;
// sync.Mutex is not reentrant).
func (sh *shard) serveBatch(s *Server, batch []*refillReq) {
	waiting := batch
	done := sh.wkDone[:0]
	sh.zoneMu.Lock()
	for len(waiting) > 0 {
		// Compact the unserved requests in place (still ⊆ waiting in
		// order), so the retry loop reuses the batch buffer instead of
		// building a fresh slice per shatter.
		still := 0
		for _, req := range waiting {
			if f, ok := sh.popMatch(req.c, req.seq); ok {
				done = append(done, servedReq{req: req, frame: f})
			} else {
				waiting[still] = req
				still++
			}
		}
		waiting = waiting[:still]
		if len(waiting) == 0 || !sh.shatterLocked(s) {
			break
		}
	}
	sh.zoneMu.Unlock()
	sh.wkDone = done
	for _, sv := range done {
		sv.req.deliver(sh, s, sv.frame, kernel.RungNone, nil)
	}
	for _, req := range waiting {
		if f, rung, ok := s.borrow(req.c, sh); ok {
			req.deliver(sh, s, f, rung, nil)
		} else {
			req.deliver(sh, s, 0, kernel.RungNone, ErrNoMemory)
		}
	}
	clear(done)
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
