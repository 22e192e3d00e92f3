// Package serve is TintMalloc's concurrent allocation front-end: a
// goroutine-safe serving layer over the same physical-memory model the
// deterministic kernel simulates single-threaded. The paper's kernel
// serves colored order-0 allocations to many pinned threads at once;
// internal/kernel reproduces the *policy* of that path faithfully but
// serializes every call under the discrete-event engine. This package
// supplies the missing serving architecture, in the spirit of Vertical
// Memory Management's partitioned per-policy zones (PAPERS.md):
//
//   - The machine's color space is sharded per NUMA node. Each shard
//     owns a disjoint slice of the bank/LLC color matrix — the columns
//     of its node's bank colors, which never overlap another node's —
//     plus its node's buddy zone. Two shards never contend for a
//     frame, a color list, or a free list.
//   - Color lists are lock-striped: the (bank, LLC) buckets of a shard
//     are guarded by 16 stripe mutexes, so concurrent clients popping
//     different colors do not serialize.
//   - A miss refills in the caller: a client that misses its color
//     lists runs create_color_list (paper Algorithm 2) itself, under
//     its shard's zone lock, shattering blocks onto the lists until one
//     matches its claim — as the paper's kernel runs it inside the
//     faulting task's page-fault path (Algorithm 1). One shatter parks
//     a whole block, so the misses that follow hit the lists.
//   - Backpressure is explicit: past a high-water mark of concurrent
//     misses on a shard, a miss fails at once with ErrBusy instead of
//     queueing on the zone lock — callers retry or shed load.
//   - Exhaustion walks the kernel's degradation ladder itself: a
//     drained shard calls kernel.Ladder over a store of the server's
//     shards (clientStore). Starting on the client's local node,
//     whichever shard its miss was routed to, the ladder takes a page
//     of a color no client claims on the client's coloring axis, a
//     local zone frame, each remote shard's zone frame and then its
//     parked pages, and last a local parked page of any color. Every
//     below-preferred frame is a loan under the kernel's rung names,
//     and ErrNoMemory means no free frame exists on any shard
//     (DESIGN.md Sec. 11.4).
//   - The colored pops, the borrow-color rung included, are the
//     kernel's own walks: each shard embeds a kernel.Rows over its
//     buckets, whose finders name the bucket to pop; the shard pops it
//     under its stripe and finds again if a racing pop emptied it.
//   - A loan is the rung mark on its frame plus the frame's owner; a
//     gauge counts the marks. Nothing moves a loaned frame: it stays
//     where the ladder put it until its holder frees it. The package
//     starts no goroutine, so every request, a miss included, runs in
//     the caller's.
//
// Determinism scope: a single client driving a single shard sees the
// exact LIFO placement the sequential kernel would produce, and each
// shard's zone is mutated only under its own lock in request order —
// so per-shard behaviour is deterministic for a deterministic request
// sequence. Across shards under concurrent load, frame-to-client
// assignment depends on goroutine scheduling and is explicitly NOT
// reproducible run to run; what is preserved — and what the
// differential tests and invariant.AuditServer check 6 verify — is
// the invariant set: plan disjointness, single ownership, color-hash
// correctness, and loan accounting. See DESIGN.md Sec. 11.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Sentinel errors.
var (
	// ErrBusy reports backpressure: the shard is already serving
	// HighWater color-list misses. The allocation was not attempted;
	// callers retry or shed load.
	ErrBusy = errors.New("serve: shard misses past high-water mark")
	// ErrNoMemory reports machine-wide exhaustion: the borrow ladder
	// swept every shard's zone and color lists and found nothing.
	ErrNoMemory = errors.New("serve: out of memory on every shard")
	// ErrClosed reports a request against a closed server or a
	// retired client.
	ErrClosed = errors.New("serve: server closed")
	// ErrNotOwner reports a free of a frame the client never owned (or
	// already freed) — the concurrent analogue of a double free.
	ErrNotOwner = errors.New("serve: freeing a frame the client does not own")
)

// Config tunes the serving layer. The zero value selects defaults.
type Config struct {
	// HighWater is the number of concurrent color-list misses per
	// shard past which a miss fails with ErrBusy (default 192, at most
	// math.MaxInt32).
	HighWater int
}

func (c Config) withDefaults() Config {
	if c.HighWater <= 0 {
		c.HighWater = 192
	}
	return c
}

// Server is the sharded allocation front-end. All methods are safe
// for concurrent use unless noted otherwise (the Visit* accessors
// require quiescence for a coherent snapshot).
type Server struct {
	topo    *topology.Topology
	mapping *phys.Mapping
	cfg     Config
	shards  []*shard
	// owners[f] holds clientID+1 while frame f is handed out, 0
	// otherwise. The single-ownership rule is enforced with CAS.
	owners []atomic.Int32
	// colored[f] marks frames owned by the colored allocator: parked
	// on a color list or handed out through one. Such frames repark on
	// free; uncolored frames rejoin their shard's buddy zone.
	colored []atomic.Bool
	// assignedBank/assignedLLC count how many live clients claim each
	// color — the ladder's borrow-unassigned rung consults them.
	// SetColors adds a client's claim and Client.Close takes it back.
	assignedBank []atomic.Int32
	assignedLLC  []atomic.Int32

	// A loan is a frame the borrow ladder handed out below preferred
	// placement. rungOf[f] is rung+1 while frame f is on loan, 0
	// otherwise; owners[f] names the borrower. loans counts the marks.
	rungOf []atomic.Int32
	loans  atomic.Int64

	// clients holds the live clients by ID; Client.Close removes one.
	// IDs are never reused.
	clientMu sync.Mutex
	clients  map[int]*Client //tintvet:guardedby clientMu
	nextID   int             //tintvet:guardedby clientMu

	closed atomic.Bool
	stats  serverStats
}

// New boots a server over the machine: one shard per NUMA node, each
// owning the node's frame range as a fresh buddy zone and the node's
// slice of the bank-color space. It starts no goroutine: every
// request, misses included, is served in the caller's goroutine.
func New(topo *topology.Topology, mapping *phys.Mapping, cfg Config) (*Server, error) {
	if topo.Nodes() != mapping.Nodes() {
		return nil, fmt.Errorf("serve: topology nodes %d != mapping nodes %d",
			topo.Nodes(), mapping.Nodes())
	}
	cfg = cfg.withDefaults()
	// The in-flight miss count is an int32.
	if cfg.HighWater > math.MaxInt32 {
		return nil, fmt.Errorf("serve: high-water mark %d exceeds %d", cfg.HighWater, math.MaxInt32)
	}
	nodes := mapping.Nodes()
	framesPerNode := mapping.Frames() / uint64(nodes)
	s := &Server{
		topo:         topo,
		mapping:      mapping,
		cfg:          cfg,
		owners:       make([]atomic.Int32, mapping.Frames()),
		colored:      make([]atomic.Bool, mapping.Frames()),
		assignedBank: make([]atomic.Int32, mapping.NumBankColors()),
		assignedLLC:  make([]atomic.Int32, mapping.NumLLCColors()),
		rungOf:       make([]atomic.Int32, mapping.Frames()),
		clients:      make(map[int]*Client),
	}
	for n := 0; n < nodes; n++ {
		zone, err := buddy.New(framesPerNode)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, newShard(n, phys.Frame(uint64(n)*framesPerNode), zone, mapping))
	}
	return s, nil
}

// Close marks the server closed: NewClient and Alloc calls made after
// Close fail with ErrClosed, and a miss already being served
// completes. Free still works, so holders can hand frames back, and
// outstanding frames stay recorded so a post-close audit balances.
// Close is idempotent and safe to call concurrently with itself and
// with in-flight NewClient/Alloc calls.
func (s *Server) Close() { s.closed.Store(true) }

// NewClient registers a client pinned to the given core. The client's
// node fallback order (for routing and the borrow ladder) is
// topology.NodeOrder, the order the kernel's tasks use.
func (s *Server) NewClient(core topology.CoreID) (*Client, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if !s.topo.ValidCore(core) {
		return nil, fmt.Errorf("serve: invalid core %d", core)
	}
	c := &Client{
		srv:       s,
		core:      core,
		nodeOrder: s.topo.NodeOrder(core),
	}
	s.clientMu.Lock()
	c.id = s.nextID
	s.nextID++
	s.clients[c.id] = c
	s.clientMu.Unlock()
	return c, nil
}

// Client is one allocation principal: a pinned thread with an
// optional color claim, the concurrent analogue of the kernel's task
// control block. Alloc and Free are safe to call concurrently with
// other clients' calls (and with the client's own, though a client is
// normally driven by one goroutine). SetColors must complete before
// the first Alloc, and Close ends the client once it holds no frames.
type Client struct {
	srv       *Server
	id        int
	core      topology.CoreID
	nodeOrder []int

	usingBank  bool
	usingLLC   bool
	bankColors []int    // sorted owned bank colors
	llcColors  []int    // sorted owned LLC colors
	llcMask    []uint64 // owned LLC colors, in the shards' occupancy row layout
	banksOn    [][]int  // node -> owned bank colors on that node
	colorsSet  bool
	retired    atomic.Bool // set by Close

	// cursor rotates allocations over the client's color combinations
	// so heap pages spread evenly, exactly as the kernel's comboCursor
	// does; atomic so a client may be driven from several goroutines.
	cursor atomic.Uint64
}

// ID returns the client identifier (unique across the server).
func (c *Client) ID() int { return c.id }

// Core returns the core the client is pinned to.
func (c *Client) Core() topology.CoreID { return c.core }

// UsingBank reports whether bank coloring is active.
func (c *Client) UsingBank() bool { return c.usingBank }

// UsingLLC reports whether LLC coloring is active.
func (c *Client) UsingLLC() bool { return c.usingLLC }

// BankColors returns a copy of the owned bank colors.
func (c *Client) BankColors() []int { return append([]int(nil), c.bankColors...) }

// LLCColors returns a copy of the owned LLC colors.
func (c *Client) LLCColors() []int { return append([]int(nil), c.llcColors...) }

// OwnsBankColor reports whether the client claims bank color bc.
func (c *Client) OwnsBankColor(bc int) bool {
	i := sort.SearchInts(c.bankColors, bc)
	return i < len(c.bankColors) && c.bankColors[i] == bc
}

// OwnsLLCColor reports whether the client claims LLC color lc.
func (c *Client) OwnsLLCColor(lc int) bool {
	i := sort.SearchInts(c.llcColors, lc)
	return i < len(c.llcColors) && c.llcColors[i] == lc
}

// SetColors installs the client's color claim — the front-end
// analogue of the paper's mmap color-selection protocol, taken whole
// instead of color by color. Empty slices leave the respective
// dimension uncolored. A color may appear once per list, so a claim
// holds at most every bank color and every LLC color. SetColors may
// be called at most once, before the client's first allocation.
func (c *Client) SetColors(bank, llc []int) error {
	s := c.srv
	if c.retired.Load() {
		return ErrClosed
	}
	if c.colorsSet {
		return fmt.Errorf("serve: client %d colors already set", c.id)
	}
	bankColors, err := sortedColors("bank", bank, s.mapping.NumBankColors())
	if err != nil {
		return err
	}
	llcColors, err := sortedColors("LLC", llc, s.mapping.NumLLCColors())
	if err != nil {
		return err
	}
	c.bankColors, c.llcColors = bankColors, llcColors
	c.usingBank = len(c.bankColors) > 0
	c.usingLLC = len(c.llcColors) > 0
	c.llcMask = s.shards[0].Mask(c.llcColors)
	c.banksOn = make([][]int, s.mapping.Nodes())
	for _, bc := range c.bankColors {
		n := s.mapping.NodeOfBankColor(bc)
		c.banksOn[n] = append(c.banksOn[n], bc)
		s.assignedBank[bc].Add(1)
	}
	for _, lc := range c.llcColors {
		s.assignedLLC[lc].Add(1)
	}
	c.colorsSet = true
	return nil
}

// sortedColors returns a sorted copy of one color list of a claim,
// rejecting a color outside [0, n) or one that appears twice.
func sortedColors(axis string, colors []int, n int) ([]int, error) {
	out := append([]int(nil), colors...)
	sort.Ints(out)
	for i, col := range out {
		if col < 0 || col >= n {
			return nil, fmt.Errorf("serve: %s color %d out of range [0,%d)", axis, col, n)
		}
		if i > 0 && col == out[i-1] {
			return nil, fmt.Errorf("serve: %s color %d repeated", axis, col)
		}
	}
	return out, nil
}

// Close retires the client: its color claim stops counting as
// assigned, and the server no longer retains it, so a long-lived
// server keeps only the clients still in use. The client must hold
// no frames — free (or, in the daemon, reclaim) them first;
// invariant.AuditServer flags any frame a retired client still holds.
// Alloc and SetColors on a retired client fail with ErrClosed. Close
// is idempotent.
func (c *Client) Close() {
	if !c.retired.CompareAndSwap(false, true) {
		return
	}
	s := c.srv
	for _, bc := range c.bankColors {
		s.assignedBank[bc].Add(-1)
	}
	for _, lc := range c.llcColors {
		s.assignedLLC[lc].Add(-1)
	}
	s.clientMu.Lock()
	delete(s.clients, c.id)
	s.clientMu.Unlock()
}

// Alloc hands the client one order-0 frame under its color claim: the
// concurrent Algorithm 1. Colored clients hit their shard's striped
// color lists, refill them on a miss, and finally walk the borrow
// ladder; uncolored clients take shard zones in node-fallback order.
// Returns ErrBusy under backpressure (nothing was allocated) and
// ErrNoMemory only on machine-wide exhaustion.
func (c *Client) Alloc() (phys.Frame, error) {
	s := c.srv
	if s.closed.Load() || c.retired.Load() {
		return 0, ErrClosed
	}
	if !c.usingBank && !c.usingLLC {
		return s.allocDefault(c)
	}
	return s.allocColored(c)
}

// Free returns a frame obtained from Alloc. Colored frames repark on
// their shard's color list; uncolored frames rejoin the shard's buddy
// zone. Freeing settles any loan on the frame.
func (c *Client) Free(f phys.Frame) error {
	s := c.srv
	if !s.mapping.ValidFrame(f) {
		return fmt.Errorf("serve: frame %d out of range", f)
	}
	if !s.owners[f].CompareAndSwap(int32(c.id)+1, 0) {
		return ErrNotOwner
	}
	if s.rungOf[f].Swap(0) != 0 {
		s.loans.Add(-1)
	}
	s.stats.frees.Add(1)
	sh := s.shards[s.mapping.NodeOfFrame(f)]
	if s.colored[f].Load() {
		sh.park(f, s)
		return nil
	}
	sh.zoneMu.Lock()
	err := sh.zone.Free(f-sh.base, 0)
	sh.zoneMu.Unlock()
	return err
}

// Realloc exchanges one held frame for a fresh allocation under the
// same color claim. The new frame is allocated first, so an Alloc
// failure (ErrBusy, ErrNoMemory) leaves the old frame owned and the
// caller's bookkeeping untouched; only then is old freed. If that
// free fails (ErrNotOwner — the caller never held old) the fresh
// frame is released again before the error is returned.
func (c *Client) Realloc(old phys.Frame) (phys.Frame, error) {
	f, err := c.Alloc()
	if err != nil {
		return 0, err
	}
	if err := c.Free(old); err != nil {
		if ferr := c.Free(f); ferr != nil {
			return 0, fmt.Errorf("serve: realloc unwind: %v (after %w)", ferr, err)
		}
		return 0, err
	}
	return f, nil
}

// allocColored serves a colored client: striped-list fast path on the
// routed shard, then, on a miss, a refill in this goroutine that walks
// the borrow ladder if the shard is drained (shard.serveMiss).
func (s *Server) allocColored(c *Client) (phys.Frame, error) {
	seq := c.cursor.Add(1) - 1
	sh := s.routeShard(c, seq)
	parks := sh.parks.Load()
	if f, ok := sh.popMatch(c, seq); ok {
		s.finishAlloc(c, f, kernel.RungNone)
		s.stats.coloredAllocs.Add(1)
		return f, nil
	}
	f, rung, err := sh.serveMiss(c, seq, parks, s)
	if err != nil {
		return 0, err
	}
	s.finishAlloc(c, f, rung)
	if rung == kernel.RungNone {
		s.stats.coloredAllocs.Add(1)
	}
	return f, nil
}

// routeShard picks the shard serving this allocation: bank-colored
// clients follow the rotating color cursor to the shard owning the
// chosen color; LLC-only and uncolored clients stay on their local
// node's shard.
func (s *Server) routeShard(c *Client, seq uint64) *shard {
	if c.usingBank {
		bc := c.bankColors[int(seq%uint64(len(c.bankColors)))]
		return s.shards[s.mapping.NodeOfBankColor(bc)]
	}
	return s.shards[c.nodeOrder[0]]
}

// allocDefault serves an uncolored client: shard zones in node
// fallback order (the default policy), then — zones dry — parked
// pages via the ladder, spending a colored page on an uncolored task.
func (s *Server) allocDefault(c *Client) (phys.Frame, error) {
	st := clientStore{s, c}
	for _, n := range c.nodeOrder {
		if f, ok := st.Zone(n); ok {
			s.finishAlloc(c, f, kernel.RungNone)
			s.stats.defaultAllocs.Add(1)
			return f, nil
		}
	}
	f, rung, ok := kernel.Ladder(st, c.nodeOrder, false)
	if !ok {
		return 0, ErrNoMemory
	}
	s.finishAlloc(c, f, rung)
	return f, nil
}

// finishAlloc records the loan, for a ladder frame, and then
// ownership of a frame about to be handed to c. The mark goes first,
// so a Free that wins the ownership CAS always finds it.
func (s *Server) finishAlloc(c *Client, f phys.Frame, rung kernel.Rung) {
	if rung != kernel.RungNone {
		s.rungOf[f].Store(int32(rung) + 1)
		s.loans.Add(1)
		s.stats.borrows[rung].Add(1)
	}
	s.owners[f].Store(int32(c.id) + 1)
	s.stats.allocs.Add(1)
}

// clientStore is serve's kernel.LadderStore: the shards' zones and
// buckets, lent on client c's claim. Each method takes one shard's
// locks and drops them before it returns, so the ladder never holds
// two; its callers must hold none.
type clientStore struct {
	s *Server
	c *Client
}

func (st clientStore) Lend(node int) (phys.Frame, bool) {
	return st.s.shards[node].popUnassigned(st.c, st.s)
}

func (st clientStore) Zone(node int) (phys.Frame, bool) {
	sh := st.s.shards[node]
	sh.zoneMu.Lock()
	f, err := sh.zone.Alloc(0)
	sh.zoneMu.Unlock()
	return sh.base + f, err == nil
}

func (st clientStore) Parked(node int) (phys.Frame, bool) {
	return st.s.shards[node].popAnyParked()
}
