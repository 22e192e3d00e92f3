package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/tintmalloc/tintmalloc/internal/clock"
)

// eventQueue orders the live threads of a phase by (virtual time,
// thread id). It replaces the linear earliest-thread scan of the
// conservative discrete-event loop.
//
// The ordering key is a strict total order — thread ids are unique —
// so the queue's minimum is exactly the thread the linear scan would
// have picked, and the two schedulers are step-for-step identical.
// The determinism regression test (internal/bench
// TestRunsAreByteIdentical) and the engine's scheduler-equivalence
// test pin this down.
//
// Keys are packed: time<<idBits | id in one uint64, which orders
// exactly as the (time, id) pair does, and the id half names the
// runner. idBits is sized to the phase's largest thread id, which
// leaves 64-idBits bits of virtual time headroom — with even 1024
// threads that is 2^54 cycles, far past any simulation. A time at or
// past that limit cannot be packed, so the queue returns an error
// naming the thread.
//
// The keys sit in a ring kept sorted from the head, the minimum. The
// event loop only ever advances the minimum's time, and a thread that
// just stepped tends to fall behind most of the others, so FixMin
// reinserts its key by scanning back from the tail. A step costs one
// compare plus one move per key the stepped thread does not pass:
// O(n) at worst, against a binary heap's O(log n), but a loop the host
// predicts well, where the heap's sift branches unpredictably. The
// measured depths behind this choice are in DESIGN.md Sec. 8.
type eventQueue struct {
	byID   []*runnerState // byID[id] is the runner with that id
	keys   []uint64       // ring of time<<idBits | id, sorted from head
	head   int
	n      int // live threads
	mask   int // len(keys)-1; len(keys) is a power of two
	idBits uint
	idMask uint64
	limit  clock.Time // first unrepresentable time
}

// newEventQueue queues the given runners. It fails if a runner's
// time does not fit the packed key.
func newEventQueue(rs []*runnerState) (*eventQueue, error) {
	maxID := 0
	for _, r := range rs {
		maxID = max(maxID, r.id)
	}
	q := &eventQueue{
		byID:   make([]*runnerState, maxID+1),
		keys:   make([]uint64, 1<<bits.Len(uint(max(len(rs), 1)-1))),
		n:      len(rs),
		idBits: uint(max(bits.Len(uint(maxID)), 1)),
	}
	q.mask = len(q.keys) - 1
	q.idMask = 1<<q.idBits - 1
	q.limit = clock.Time(1) << (64 - q.idBits)
	for i, r := range rs {
		if r.time >= q.limit {
			return nil, q.overflow(r)
		}
		q.byID[r.id] = r
		q.keys[i] = q.pack(r)
	}
	slices.Sort(q.keys[:q.n])
	return q, nil
}

func (q *eventQueue) pack(r *runnerState) uint64 {
	return uint64(r.time)<<q.idBits | uint64(r.id)
}

func (q *eventQueue) overflow(r *runnerState) error {
	return fmt.Errorf("thread %d: virtual time %d reached the event queue's limit %d", r.id, r.time, q.limit)
}

// Len returns the number of live threads.
func (q *eventQueue) Len() int { return q.n }

// Min returns the earliest thread (ties broken by lowest id) without
// removing it.
func (q *eventQueue) Min() *runnerState { return q.byID[q.keys[q.head]&q.idMask] }

// FixMin restores the order after the minimum's time advanced (the
// only mutation the event loop performs on a live thread). It fails,
// leaving the queue unchanged, if the new time does not fit the
// packed key.
func (q *eventQueue) FixMin() error {
	r := q.Min()
	if r.time >= q.limit {
		return q.overflow(r)
	}
	k := q.pack(r)
	next := (q.head + 1) & q.mask
	if q.n == 1 || k < q.keys[next] {
		q.keys[q.head] = k
		return nil
	}
	// The runner-up becomes the head. Every key left is below k
	// from there on, so the backward scan stops at the head at the
	// latest.
	q.head = next
	i := (q.head + q.n - 1) & q.mask
	for {
		p := (i - 1) & q.mask
		if q.keys[p] < k {
			break
		}
		q.keys[i] = q.keys[p]
		i = p
	}
	q.keys[i] = k
	return nil
}

// PopMin removes and returns the earliest thread.
func (q *eventQueue) PopMin() *runnerState {
	r := q.Min()
	q.head = (q.head + 1) & q.mask
	q.n--
	return r
}
