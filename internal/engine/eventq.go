package engine

import (
	"fmt"
	"math/bits"

	"github.com/tintmalloc/tintmalloc/internal/clock"
)

// eventQueue is a binary min-heap over the live threads of a phase,
// ordered by (virtual time, thread id). It replaces the linear
// earliest-thread scan of the conservative discrete-event loop: with
// n live threads a scheduling step costs O(log n) instead of O(n).
//
// The ordering key is a strict total order — thread ids are unique —
// so the heap's minimum is exactly the thread the linear scan would
// have picked, and the two schedulers are step-for-step identical.
// The determinism regression test (internal/bench
// TestRunsAreByteIdentical) and the engine's scheduler-equivalence
// test pin this down.
//
// Keys are packed: time<<idBits | id in one uint64 per slot, so a
// sift comparison is a single integer compare on one contiguous
// array, and it orders exactly as the (time, id) pair does. idBits is
// sized to the phase's largest thread id, which leaves 64-idBits bits
// of virtual time headroom — with even 1024 threads that is 2^54
// cycles, far past any simulation. A time at or past that limit
// cannot be packed, so the queue returns an error naming the thread.
type eventQueue struct {
	rs     []*runnerState
	idBits uint
	limit  clock.Time // first unrepresentable time
	keys   []uint64   // keys[i] = time<<idBits | id
}

// newEventQueue heapifies the given runners in place. It fails if a
// runner's time does not fit the packed key.
func newEventQueue(rs []*runnerState) (*eventQueue, error) {
	q := &eventQueue{rs: rs}
	maxID := 0
	for _, r := range rs {
		if r.id > maxID {
			maxID = r.id
		}
	}
	q.idBits = uint(bits.Len(uint(maxID)))
	if q.idBits == 0 {
		q.idBits = 1
	}
	q.limit = clock.Time(1) << (64 - q.idBits)
	q.keys = make([]uint64, len(rs))
	for i, r := range rs {
		if r.time >= q.limit {
			return nil, q.overflow(r)
		}
		q.keys[i] = q.pack(r)
	}
	for i := len(rs)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	return q, nil
}

func (q *eventQueue) pack(r *runnerState) uint64 {
	return uint64(r.time)<<q.idBits | uint64(r.id)
}

func (q *eventQueue) overflow(r *runnerState) error {
	return fmt.Errorf("thread %d: virtual time %d reached the event queue's limit %d", r.id, r.time, q.limit)
}

// Len returns the number of live threads.
func (q *eventQueue) Len() int { return len(q.rs) }

// Min returns the earliest thread (ties broken by lowest id) without
// removing it.
func (q *eventQueue) Min() *runnerState { return q.rs[0] }

// FixMin restores heap order after the minimum's time advanced (the
// only mutation the event loop performs on a live thread). It fails,
// leaving the queue unchanged, if the new time does not fit the
// packed key.
func (q *eventQueue) FixMin() error {
	r := q.rs[0]
	if r.time >= q.limit {
		return q.overflow(r)
	}
	q.keys[0] = q.pack(r)
	q.siftDown(0)
	return nil
}

// PopMin removes and returns the earliest thread.
func (q *eventQueue) PopMin() *runnerState {
	r := q.rs[0]
	last := len(q.rs) - 1
	q.rs[0] = q.rs[last]
	q.rs[last] = nil
	q.rs = q.rs[:last]
	q.keys[0] = q.keys[last]
	q.keys = q.keys[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return r
}

// siftDown restores heap order below slot i. It shifts the smaller
// child up into the hole and places the sifting element once at the
// end, rather than swapping pairwise at every level.
func (q *eventQueue) siftDown(i int) {
	n := len(q.rs)
	r, k := q.rs[i], q.keys[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if c := l + 1; c < n && q.keys[c] < q.keys[l] {
			m = c
		}
		if q.keys[m] >= k {
			break
		}
		q.rs[i], q.keys[i] = q.rs[m], q.keys[m]
		i = m
	}
	q.rs[i], q.keys[i] = r, k
}
