// Package kernel simulates the slice of an operating-system kernel
// that TintMalloc modifies (paper Sec. III): task control blocks with
// per-task color sets, the mmap() color-selection protocol, page
// tables with fault-driven first-touch frame allocation, and the
// colored free lists of Algorithms 1 and 2 layered over a buddy
// allocator.
//
// The flow mirrors the paper exactly:
//
//  1. A task opts in by calling Mmap with length 0, the COLOR_ALLOC
//     protection bit, and an address argument encoding a mode
//     (set/clear x memory/LLC) and a color. The color set is stored
//     in the TCB together with the using_bank/using_llc flags.
//  2. Subsequent page faults for that task take the colored path of
//     Algorithm 1: pop a frame from color_list[MEM_ID][LLC_ID]; if
//     the list is empty, traverse the buddy free lists by increasing
//     order for a block containing a matching frame and shatter it
//     into the color lists (create_color_list, Algorithm 2).
//  3. Uncolored tasks, and orders greater than zero, use the default
//     buddy path.
//
// The kernel is deterministic and not safe for concurrent use; the
// discrete-event engine serializes all calls.
package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Sentinel errors.
var (
	// ErrBadColor reports a color outside the platform's range.
	ErrBadColor = errors.New("kernel: color out of range")
	// ErrBadMmap reports a malformed mmap color request.
	ErrBadMmap = errors.New("kernel: malformed mmap arguments")
	// ErrSegfault reports access to an unmapped virtual address.
	ErrSegfault = errors.New("kernel: segmentation fault")
	// ErrNoMemory reports machine-wide exhaustion: the degradation
	// ladder found no free frame on any node.
	ErrNoMemory = errors.New("kernel: out of memory")
)

// Config tunes the simulated costs of kernel operations.
type Config struct {
	// FaultCost is charged for every minor page fault (page-table
	// fill from an already-available frame).
	FaultCost clock.Dur
	// RefillBaseCost is the extra charge when a colored fault must
	// traverse the buddy free lists and shatter a block
	// (create_color_list); the paper notes this makes the first
	// heap requests of an application more expensive.
	RefillBaseCost clock.Dur
	// RefillPerFrameCost is charged per frame moved into the color
	// lists during a refill.
	RefillPerFrameCost clock.Dur
	// ChurnSeed, when nonzero, ages the zones at boot: every frame
	// is allocated, shuffled and freed again so the free lists hand
	// out pages in randomized physical order — the state of a real
	// system after uptime, rather than the pristine contiguity of a
	// fresh buddy allocator. HoldoutFrac (default 0) additionally
	// keeps that fraction of frames allocated forever (resident
	// pages of "other" processes), pinning the fragmentation.
	ChurnSeed   int64
	HoldoutFrac float64
	// BuddyRemoteFrac models the imperfect NUMA locality of the
	// default allocator on a busy system (paper Fig. 7: "one task
	// may access a remote memory node under the buddy allocator"):
	// this fraction of an uncolored task's fault *chunks* (runs of
	// RemoteChunkPages consecutive faults) is served from a remote
	// zone, as happens when the local zone is under transient
	// pressure. Placement is deterministic per (task, chunk, churn
	// seed), so different threads draw different luck — the
	// per-thread placement variance behind the paper's buddy
	// imbalance. Colored allocations are unaffected: TintMalloc's
	// node-constrained path is the point of the paper.
	BuddyRemoteFrac float64
}

// RemoteChunkPages is the fault-chunk granularity of BuddyRemoteFrac:
// zone pressure is bursty, so placement luck applies to runs of
// consecutive faults rather than to single pages.
const RemoteChunkPages = 256

// DefaultConfig returns fault costs roughly matching a Linux minor
// fault (~1 us at 2 GHz) and a list refill.
func DefaultConfig() Config {
	return Config{
		FaultCost:          2000,
		RefillBaseCost:     400,
		RefillPerFrameCost: 8,
	}
}

// Stats counts kernel allocation events.
type Stats struct {
	Faults       uint64 // total page faults served
	ColoredPages uint64 // frames handed out via the colored path
	BuddyPages   uint64 // frames handed out via the default path
	Refills      uint64 // create_color_list invocations
	RefillFrames uint64 // frames shattered into color lists
	ColorMmaps   uint64 // color-protocol mmap calls

	// Simulated-TLB counters.
	TLBHits       uint64 // Translate calls served by the TLB
	TLBMisses     uint64 // Translate calls that walked the page table
	TLBShootdowns uint64 // invalidation events (munmap/migrate pages, recolor flushes)

	// Degradation-ladder counters (DESIGN.md Sec. 10). All zero while
	// the preferred paths never fail; ladder frames are counted here
	// and nowhere else (not in ColoredPages/BuddyPages), so the
	// preferred-path counters keep their paper meaning.
	DegradedAllocs  [NumRungs]uint64 // frames handed out per ladder rung
	LoansReclaimed  uint64           // loaned pages migrated back to preferred placement
	ParkedReclaimed uint64           // parked pages un-colored to serve order>0 requests

	// Loan-ledger counters (auditor check 7, DESIGN.md Sec. 15). Every
	// loan is registered exactly once and settled exactly once — by a
	// free, a reclaim migration, or a repolicy that legalizes it in
	// place — so LoansRegistered == LoansSettled + outstanding loans at
	// every audit point.
	LoansRegistered uint64 // loans opened (registerLoan)
	LoansSettled    uint64 // loans closed (freed, migrated home, or legalized)
	LoansDemoted    uint64 // borrow-color loans demoted to remote by a repolicy

	// Adaptive-engine counters (DESIGN.md Sec. 15). Zero unless a
	// barrier driver calls Task.Repolicy / Task.CompactStep.
	Repolicies   uint64 // Task.Repolicy color-set switches applied
	CompactScans uint64 // resident pages inspected by CompactStep
	CompactMoved uint64 // misplaced pages migrated home by CompactStep
}

// Kernel owns physical memory and all simulated processes.
//
// Physical memory is managed as one buddy zone per memory node, as in
// Linux: the default (uncolored) allocation path serves a fault from
// the faulting task's local node first, falling back to other nodes
// in increasing hop distance. The colored path searches the zones in
// the same local-first order.
type Kernel struct {
	topo    *topology.Topology
	mapping *phys.Mapping
	cfg     Config
	zones   []*buddy.Allocator // one buddy zone per node
	zoneLo  []phys.Frame       // first global frame of each zone
	colors  *colorTable
	// bankClaims and llcClaims count, per color, the tasks whose TCB
	// holds it. Task.setBank and Task.setLLC keep them; the ladder
	// reads them to find colors no task has claimed. They are atomics
	// only so that Rows.Borrow reads the kernel's counts and serve's
	// alike.
	bankClaims []atomic.Int32
	llcClaims  []atomic.Int32
	// coloredFrame marks frames currently owned by the color lists
	// or handed out through them; such frames return to the color
	// lists on free rather than to the buddy (paper Sec. III-C).
	coloredFrame []bool
	// Dense frame->color lookup tables (from the mapping).
	frameBank  []int32
	frameLLC   []int16
	procs      []*Process
	nextTaskID int
	stats      Stats
	// loans tracks frames handed out below the top of the degradation
	// ladder (degrade.go); nil until the first degraded allocation.
	// loanRung is its flat hot-path mirror, indexed by frame: rung+1
	// while a loan exists, 0 otherwise — freeFrame consults it so the
	// common (unloaned) free never touches the map.
	loans    map[phys.Frame]loan
	loanRung []uint8
	// fault holds the kernel-level fault-injection hooks (zone-level
	// hooks live on the buddy allocators themselves).
	fault FaultHooks
}

// New boots a kernel over the given machine. The entire physical
// memory is seeded into the per-node buddy zones; color lists start
// empty, exactly as after the paper's boot phase.
func New(topo *topology.Topology, mapping *phys.Mapping, cfg Config) (*Kernel, error) {
	zones, err := BuildZones(mapping, cfg)
	if err != nil {
		return nil, err
	}
	return NewWithZones(topo, mapping, cfg, zones)
}

// BuildZones constructs (and, when cfg.ChurnSeed is set, ages) the
// per-node buddy zones for a mapping. Exposed so harnesses can age
// zones once and Clone them for repeated runs.
func BuildZones(mapping *phys.Mapping, cfg Config) ([]*buddy.Allocator, error) {
	framesPerNode := mapping.Frames() / uint64(mapping.Nodes())
	var zones []*buddy.Allocator
	for n := 0; n < mapping.Nodes(); n++ {
		z, err := buddy.New(framesPerNode)
		if err != nil {
			return nil, err
		}
		if cfg.ChurnSeed != 0 {
			if err := churnZone(z, cfg.ChurnSeed+int64(n), cfg.HoldoutFrac); err != nil {
				return nil, err
			}
		}
		zones = append(zones, z)
	}
	return zones, nil
}

// NewWithZones boots a kernel over pre-built zones (one per node,
// each spanning the node's frame range). The kernel takes ownership
// of the zones.
func NewWithZones(topo *topology.Topology, mapping *phys.Mapping, cfg Config, zones []*buddy.Allocator) (*Kernel, error) {
	if topo.Nodes() != mapping.Nodes() {
		return nil, fmt.Errorf("kernel: topology nodes %d != mapping nodes %d",
			topo.Nodes(), mapping.Nodes())
	}
	framesPerNode := mapping.Frames() / uint64(mapping.Nodes())
	if len(zones) != mapping.Nodes() {
		return nil, fmt.Errorf("kernel: %d zones for %d nodes", len(zones), mapping.Nodes())
	}
	for n, z := range zones {
		if z.Frames() != framesPerNode {
			return nil, fmt.Errorf("kernel: zone %d spans %d frames, want %d", n, z.Frames(), framesPerNode)
		}
	}
	k := &Kernel{
		topo:         topo,
		mapping:      mapping,
		cfg:          cfg,
		zones:        zones,
		colors:       newColorTable(mapping.NumBankColors(), mapping.NumLLCColors(), mapping.BanksPerNode()),
		bankClaims:   make([]atomic.Int32, mapping.NumBankColors()),
		llcClaims:    make([]atomic.Int32, mapping.NumLLCColors()),
		coloredFrame: make([]bool, mapping.Frames()),
		loanRung:     make([]uint8, mapping.Frames()),
	}
	k.frameBank, k.frameLLC = mapping.FrameColorTables()
	for n := 0; n < mapping.Nodes(); n++ {
		k.zoneLo = append(k.zoneLo, phys.Frame(uint64(n)*framesPerNode))
	}
	return k, nil
}

// churnZone ages a fresh zone into the page-granular fragmentation of
// a long-running system: every frame is allocated, the population is
// shuffled, a holdout fraction stays resident forever (other
// processes' memory), and the rest are freed in random order. The
// free lists afterwards hand out pages in randomized physical order —
// the state the paper's evaluation machine is in, rather than the
// pristine contiguity of a freshly booted buddy allocator.
func churnZone(z *buddy.Allocator, seed int64, holdout float64) error {
	if holdout < 0 || holdout >= 1 {
		return fmt.Errorf("kernel: holdout fraction %v out of range", holdout)
	}
	rng := rand.New(rand.NewSource(seed))
	frames := make([]phys.Frame, 0, z.Frames())
	for {
		f, err := z.Alloc(0)
		if err != nil {
			break
		}
		frames = append(frames, f)
	}
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	keep := int(holdout * float64(len(frames)))
	for _, f := range frames[keep:] {
		if err := z.Free(f, 0); err != nil {
			return err
		}
	}
	return nil
}

// splitmix is a 64-bit mix for deterministic per-chunk placement.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Mapping returns the machine's physical address mapping.
func (k *Kernel) Mapping() *phys.Mapping { return k.mapping }

// Topology returns the machine topology.
func (k *Kernel) Topology() *topology.Topology { return k.topo }

// Stats returns a copy of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// FreeFrames returns the frames still in the buddy zones.
func (k *Kernel) FreeFrames() uint64 {
	var total uint64
	for _, z := range k.zones {
		total += z.FreeFrames()
	}
	return total
}

// FreeFramesOfNode returns the free frames in node n's zone.
func (k *Kernel) FreeFramesOfNode(n int) uint64 { return k.zones[n].FreeFrames() }

// ColoredFreePages returns the number of free pages currently parked
// on color_list[bankColor][llcColor].
func (k *Kernel) ColoredFreePages(bankColor, llcColor int) int {
	return len(k.colors.list(bankColor, llcColor))
}

// TotalColoredFree returns all pages across every color list.
func (k *Kernel) TotalColoredFree() uint64 { return k.colors.total }

// NewProcess creates an empty address space.
func (k *Kernel) NewProcess() *Process {
	p := &Process{
		k:      k,
		id:     len(k.procs),
		nextVA: vaBase,
	}
	k.procs = append(k.procs, p)
	return p
}

// allocPagesFor implements Algorithm 1 for an order-0 request on
// behalf of task t, extended with the degradation ladder of DESIGN.md
// Sec. 10: when the preferred placement fails, the kernel steps down
// rung by rung (Ladder) and only reports OOM once no free frame exists
// anywhere. The returned rung is RungNone for a preferred-placement
// frame; callers that map a ladder frame must register it as a loan
// (registerLoan) so the reclaim pass and the invariant auditor can
// track it.
func (k *Kernel) allocPagesFor(t *Task) (phys.Frame, clock.Dur, Rung, error) {
	f, cost, ok := k.allocPreferred(t)
	if ok {
		return f, cost, RungNone, nil
	}
	colored := t.usingBank || t.usingLLC
	f, rung, ok := Ladder(taskStore{k, t}, t.nodeOrder, colored)
	if !ok {
		return 0, cost, RungNone, ErrNoMemory
	}
	if !colored {
		cost = k.cfg.FaultCost
	}
	k.stats.DegradedAllocs[rung]++
	t.degraded++
	return f, cost, rung, nil
}

// allocDefault is the default (uncolored) path: the buddy zones
// local-first with BuddyRemoteFrac chunk diversion. There is no
// per-CPU page cache in front of it, as in the paper's kernel.
func (k *Kernel) allocDefault(t *Task) (phys.Frame, clock.Dur, bool) {
	// Default policy: local zone first, then by hop distance —
	// except for the fault chunks that BuddyRemoteFrac diverts
	// to a remote zone (transient local pressure).
	order := t.nodeOrder
	if k.cfg.BuddyRemoteFrac > 0 && len(order) > 1 {
		chunk := t.faultCount / RemoteChunkPages
		h := splitmix(uint64(t.id)*0x9E3779B97F4A7C15 ^ uint64(chunk)<<20 ^ uint64(k.cfg.ChurnSeed))
		if float64(h%1000) < k.cfg.BuddyRemoteFrac*1000 {
			remote := 1 + int(splitmix(h)%uint64(len(order)-1))
			reordered := make([]int, 0, len(order))
			reordered = append(reordered, order[remote])
			for i, n := range order {
				if i != remote {
					reordered = append(reordered, n)
				}
			}
			order = reordered
		}
	}
	t.faultCount++
	for _, n := range order {
		if f, err := k.zones[n].Alloc(0); err == nil {
			k.stats.BuddyPages++
			return k.zoneLo[n] + f, k.cfg.FaultCost, true
		}
	}
	return 0, 0, false
}

// allocColored is the preferred colored path of Algorithm 1; the
// accumulated cost is returned even on failure so the caller can
// charge the wasted refill walk.
func (k *Kernel) allocColored(t *Task) (phys.Frame, clock.Dur, bool) {
	cost := k.cfg.FaultCost
	// Fast path: a page is already parked on a matching color list.
	// LLC-only tasks take parked pages from their local node only at
	// this stage — falling back to a remote parked page before even
	// trying a local refill would needlessly surrender locality.
	if f, ok := k.colors.popColored(t, true); ok {
		k.stats.ColoredPages++
		return f, cost, true
	}

	// Slow path (Algorithm 1 lines 17-25): walk the buddy free
	// lists by increasing order and shatter blocks into the color
	// lists (create_color_list, Algorithm 2) until a page of the
	// task's colors appears. Every visited page moves to its color
	// list — exactly what Algorithm 2 does for the pages of a
	// matched block — so refill work is amortized O(1) per page
	// over a run. Zones are searched local-first; zones that
	// cannot contain a matching bank color are skipped, as are zones
	// an injected fault fails the refill for.
	refilled := false
	for _, n := range t.nodeOrder {
		if t.usingBank && !t.wantsNode(k.mapping, n) {
			continue
		}
		if k.fault.Refill != nil && k.fault.Refill(n) {
			continue
		}
		base := k.zoneLo[n]
		for order := 0; order <= buddy.MaxOrder; order++ {
			for {
				head, ok := k.zones[n].AllocExact(order)
				if !ok {
					break // try next order
				}
				if !refilled {
					cost += k.cfg.RefillBaseCost
					refilled = true
				}
				k.createColorList(order, base+head)
				cost += k.cfg.RefillPerFrameCost * clock.Dur(uint64(1)<<order)
				if f, ok := k.colors.popColored(t, n == t.nodeOrder[0]); ok {
					k.stats.ColoredPages++
					return f, cost, true
				}
			}
		}
	}
	// Last resort: a matching page parked on any node.
	if f, ok := k.colors.popColored(t, false); ok {
		k.stats.ColoredPages++
		return f, cost, true
	}
	return 0, cost, false
}

// AllocPages is the general allocation entry point of Algorithm 1
// for an explicit order. Order-0 requests from colored tasks take
// the colored path; orders greater than zero always "return page
// from normal_buddy_alloc" (Algorithm 1 line 28) — TintMalloc only
// colors 4 KB frames, and huge allocations bypass it even for
// colored tasks, exactly as in the paper. The returned frame heads a
// block of 2^order frames on the task's preferred node.
func (k *Kernel) AllocPages(t *Task, order int) (phys.Frame, clock.Dur, error) {
	if order == 0 {
		// Caller-managed frames are not page-table mapped, so a
		// ladder frame handed out here carries no loan record; it
		// still counts in Stats.DegradedAllocs.
		f, cost, _, err := k.allocPagesFor(t)
		return f, cost, err
	}
	if order < 0 || order > buddy.MaxOrder {
		return 0, 0, fmt.Errorf("kernel: order %d out of range [0,%d]", order, buddy.MaxOrder)
	}
	k.stats.Faults++
	for _, n := range t.nodeOrder {
		if f, err := k.zones[n].Alloc(order); err == nil {
			k.stats.BuddyPages += 1 << order
			return k.zoneLo[n] + f, k.cfg.FaultCost, nil
		}
	}
	// Degraded path for huge requests: un-color parked pages so they
	// coalesce back into buddy blocks, then retry. Color lists
	// re-shatter on the next colored refill.
	for _, n := range t.nodeOrder {
		if k.reclaimParkedZone(n) == 0 {
			continue
		}
		if f, err := k.zones[n].Alloc(order); err == nil {
			k.stats.BuddyPages += 1 << order
			return k.zoneLo[n] + f, k.cfg.FaultCost, nil
		}
	}
	return 0, 0, ErrNoMemory
}

// FreePages returns a block obtained from AllocPages. Order-0 frames
// from the colored path rejoin their color lists; everything else
// coalesces back into its zone.
func (k *Kernel) FreePages(f phys.Frame, order int) error {
	if order == 0 {
		k.freeFrame(f)
		return nil
	}
	n := k.mapping.NodeOfFrame(f)
	return k.zones[n].Free(f-k.zoneLo[n], order)
}

// createColorList implements Algorithm 2: shatter a buddy block of
// 2^order frames into single pages appended to their color lists.
func (k *Kernel) createColorList(order int, head phys.Frame) {
	k.stats.Refills++
	n := phys.Frame(1) << order
	for f := head; f < head+n; f++ {
		k.colors.push(f, int(k.frameBank[f]), int(k.frameLLC[f]))
		k.coloredFrame[f] = true
		k.stats.RefillFrames++
	}
}

// freeFrame returns a frame to the kernel: colored frames go back to
// their color list, uncolored frames to the buddy allocator. A freed
// frame's loan (if any) is settled — the borrow ends when the page
// does.
func (k *Kernel) freeFrame(f phys.Frame) {
	// loanRung mirrors the loans map (rung+1, 0 = no loan) so the
	// common unloaned free stays a slice load instead of a map delete.
	if k.loanRung[f] != 0 {
		k.loanRung[f] = 0
		delete(k.loans, f)
		k.stats.LoansSettled++
	}
	if k.coloredFrame[f] {
		k.colors.push(f, int(k.frameBank[f]), int(k.frameLLC[f]))
		return
	}
	n := k.mapping.NodeOfFrame(f)
	if err := k.zones[n].Free(f-k.zoneLo[n], 0); err != nil {
		panic(fmt.Sprintf("kernel: freeFrame(%d): %v", f, err))
	}
}
