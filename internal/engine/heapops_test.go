package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Each slot misuse is an Engine.Run error that names the thread, and
// the ops before it still execute.
func TestSlotRunErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		body Work
		want string
		is   error
	}{
		{
			name: "access-empty-slot",
			body: func(yield func(Op) bool) {
				_ = yield(Malloc(0, 64)) && yield(Op{Ref: Slot(0), Write: true}) &&
					yield(Op{Ref: Slot(3)})
			},
			want: "thread 1: access to empty heap slot 3",
		},
		{
			name: "access-freed-slot",
			body: func(yield func(Op) bool) {
				_ = yield(Malloc(0, 64)) && yield(Op{Ref: Slot(0), Write: true}) &&
					yield(Free(0)) && yield(Op{Ref: Slot(0)})
			},
			want: "thread 1: access to empty heap slot 0",
		},
		{
			name: "free-empty-slot",
			body: func(yield func(Op) bool) {
				_ = yield(Op{Compute: 5}) && yield(Free(2)) && yield(Op{Compute: 5})
			},
			want: "thread 1: free of empty heap slot 2",
		},
		{
			name: "heap-error",
			body: func(yield func(Op) bool) {
				_ = yield(Op{Compute: 5}) && yield(Malloc(1, 0)) && yield(Op{Compute: 5})
			},
			want: "thread 1: malloc of 0 bytes into heap slot 1",
			is:   heap.ErrBadSize,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, []topology.CoreID{0, 4})
			res, err := r.e.Run([]Phase{Parallel("p", []Work{computeWork(3, 10), tc.body})})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to contain %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error = %v, want it to wrap %v", err, tc.is)
			}
			if res == nil || res.Ops == 0 {
				t.Errorf("partial result lost the ops before the error: %+v", res)
			}
		})
	}
}

// Slots belong to a thread: the same slot number names different
// blocks on two threads, and a slot filled in one phase is still
// filled in the next.
func TestSlotsArePerThreadAndOutlivePhases(t *testing.T) {
	r := newRig(t, []topology.CoreID{0, 4})
	var events []TraceEvent
	r.e.SetTracer(func(e TraceEvent) { events = append(events, e) })
	fill := func(yield func(Op) bool) { _ = yield(Malloc(5, 128)) && yield(Op{Ref: Slot(5), Write: true}) }
	use := func(yield func(Op) bool) { _ = yield(Op{Ref: Slot(5), VA: 64}) && yield(Free(5)) }
	if _, err := r.e.Run([]Phase{
		Parallel("fill", []Work{fill, fill}),
		Parallel("use", []Work{use, use}),
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("tracer saw %d events, want 4", len(events))
	}
	block := map[int]uint64{}
	for _, ev := range events {
		if ev.Phase == "fill" {
			block[ev.Thread] = ev.VA
		}
	}
	if block[0] == block[1] {
		t.Fatalf("both threads' slot 5 resolved to %#x", block[0])
	}
	for _, ev := range events {
		if ev.Phase == "use" && ev.VA != block[ev.Thread]+64 {
			t.Errorf("thread %d read %#x in phase use, want its slot-5 block %#x + 64",
				ev.Thread, ev.VA, block[ev.Thread])
		}
	}
	for i, th := range r.e.Threads() {
		if n := th.Heap.LiveAllocations(); n != 0 {
			t.Errorf("thread %d has %d live blocks after freeing its slot", i, n)
		}
	}
}

// A heap step of a fuzzed program.
const (
	stepMalloc = iota
	stepFree
	stepAccess
	stepCompute
)

type heapStep struct {
	kind    int
	slot    int
	size    uint64 // malloc size, or access offset
	write   bool
	compute clock.Dur
}

// heapProgram is one thread's steps, split into two phases at cut.
type heapProgram struct {
	steps []heapStep
	cut   int
}

const (
	fuzzSlots = 16       // slots a fuzzed program uses
	fuzzMem   = 64 << 20 // the smallest machine, so each input runs fast
)

// decodeHeapPrograms turns fuzz bytes into valid programs for 2–4
// threads: a thread frees or accesses only a slot it filled, mallocs
// only into an empty slot, and accesses inside the block.
func decodeHeapPrograms(data []byte) []heapProgram {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	progs := make([]heapProgram, 2+int(next())%3)
	for t := range progs {
		var size [fuzzSlots]uint64 // 0 = empty
		n := int(next()) % 48
		for i := 0; i < n; i++ {
			b := next()
			k := int(next()) % fuzzSlots
			st := heapStep{slot: k, compute: clock.Dur(b >> 4)}
			switch int(b) % 4 {
			case stepMalloc, stepFree:
				if size[k] == 0 {
					// 16 B to 16 KiB: both the slab and the
					// page-granular paths.
					st.kind = stepMalloc
					st.size = 16 + (uint64(next())<<8|uint64(next()))%(16<<10-15)
					size[k] = st.size
				} else {
					st.kind = stepFree
					size[k] = 0
				}
			case stepAccess:
				if size[k] == 0 {
					st.kind = stepCompute
					break
				}
				st.kind = stepAccess
				st.size = uint64(next()) * 97 % size[k]
				st.write = b&8 != 0
			default:
				st.kind = stepCompute
			}
			progs[t].steps = append(progs[t].steps, st)
		}
		progs[t].cut = int(next()) % (n + 1)
	}
	return progs
}

// heapRun is everything one execution of the programs observes.
type heapRun struct {
	res    *Result
	events []TraceEvent
	stats  kernel.Stats
	audit  error
}

// runHeapPrograms executes the programs on a fresh rig, either as
// slot ops or as bodies that call the heap directly after a Sync and
// yield absolute addresses, the way bodies ran heap calls at their
// turn before slot ops existed.
func runHeapPrograms(t *testing.T, progs []heapProgram, direct bool) heapRun {
	cores := []topology.CoreID{0, 4, 8, 12}[:len(progs)]
	r := newRigMem(t, cores, fuzzMem)
	var run heapRun
	r.e.SetTracer(func(e TraceEvent) { run.events = append(run.events, e) })
	threads := r.e.Threads()
	vas := make([][fuzzSlots]uint64, len(progs))
	var heapErr error
	body := func(tid int, steps []heapStep) Work {
		th := threads[tid]
		return func(yield func(Op) bool) {
			for _, st := range steps {
				var ok bool
				switch {
				case st.kind == stepCompute:
					ok = yield(Op{Compute: st.compute})
				case !direct && st.kind == stepMalloc:
					ok = yield(Malloc(st.slot, st.size))
				case !direct && st.kind == stepFree:
					ok = yield(Free(st.slot))
				case !direct:
					ok = yield(Op{Ref: Slot(st.slot), VA: st.size, Write: st.write, Compute: st.compute})
				case st.kind == stepAccess:
					ok = yield(Op{VA: vas[tid][st.slot] + st.size, Write: st.write, Compute: st.compute})
				default:
					if ok = yield(Sync()); !ok {
						break
					}
					var err error
					if st.kind == stepMalloc {
						vas[tid][st.slot], err = th.Heap.Malloc(st.size)
					} else {
						err = th.Heap.Free(vas[tid][st.slot])
					}
					if err != nil {
						heapErr = err
						return
					}
				}
				if !ok {
					return
				}
			}
		}
	}
	var phases []Phase
	for pi := 0; pi < 2; pi++ {
		bodies := make([]Work, len(progs))
		for tid, p := range progs {
			steps := p.steps[:p.cut]
			if pi == 1 {
				steps = p.steps[p.cut:]
			}
			bodies[tid] = body(tid, steps)
		}
		phases = append(phases, Parallel([]string{"a", "b"}[pi], bodies))
	}
	res, err := r.e.Run(phases)
	if err == nil {
		err = heapErr
	}
	if err != nil {
		t.Fatalf("direct=%v: %v", direct, err)
	}
	run.res = res
	run.stats = r.k.Stats()
	run.audit = invariant.Audit(r.k).Err()
	return run
}

// FuzzEngineHeapOps checks slot ops against the behaviour they
// replace: heap calls made directly by the body at its own turn,
// after a Sync, with absolute addresses yielded. Both executions of a
// program must agree on the Result, on every traced access and on
// the kernel's counters, and both must leave the kernel auditing
// clean.
func FuzzEngineHeapOps(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 800)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		progs := decodeHeapPrograms(data)
		slots := runHeapPrograms(t, progs, false)
		direct := runHeapPrograms(t, progs, true)
		if slots.audit != nil || direct.audit != nil {
			t.Fatalf("audit: slot ops %v, direct %v", slots.audit, direct.audit)
		}
		if !reflect.DeepEqual(slots.res, direct.res) {
			t.Fatalf("results differ:\nslot ops %+v\ndirect   %+v", slots.res, direct.res)
		}
		if !reflect.DeepEqual(slots.events, direct.events) {
			t.Fatalf("trace streams differ:\nslot ops %+v\ndirect   %+v", slots.events, direct.events)
		}
		if slots.stats != direct.stats {
			t.Fatalf("kernel stats differ:\nslot ops %+v\ndirect   %+v", slots.stats, direct.stats)
		}
	})
}
