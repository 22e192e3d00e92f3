package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// TestAuditFlagsClearedOccupancyBit strands one occupied bucket by
// clearing its occupancy bit and requires the auditor to name it: no
// probe would ever reach its frames again, and nothing else fails.
func TestAuditFlagsClearedOccupancyBit(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(m.BankColorsOfNode(0)[:2], []int{3}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Alloc() // the miss shatters a block onto node 0's buckets
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(f); err != nil {
		t.Fatal(err)
	}
	auditServerClean(t, s)

	bc, lc, n := -1, -1, 0
	s.VisitShardBuckets(0, func(b, l int, frames []phys.Frame, occupied bool) {
		if bc < 0 && len(frames) > 0 {
			bc, lc, n = b, l, len(frames)
		}
	})
	if bc < 0 {
		t.Fatal("no occupied bucket on shard 0 after a refill")
	}
	s.ClearOccupancyBit(0, bc, lc)
	err = invariant.AuditServer(s).Err()
	want := fmt.Sprintf("shard 0 color list [%d][%d] holds %d frames but its occupancy bit is clear", bc, lc, n)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit after clearing the bit: %v\nwant a violation containing %q", err, want)
	}
}

// TestParkProbeStress has clients sharing one small color claim park
// and probe the same buckets at once, while uncolored clients probe
// them through the ladder's any-parked rung. Hogs first take every
// frame of nodes 1-3, so once the clients' refills dry node 0's zone
// every miss walks the ladder over node 0's buckets. Afterwards the
// hogs free their frames, which park on their buckets, and one client
// drains the server; past the zones, only the any-parked rung reaches
// those frames. Every frame must come back (a clear bit over a
// non-empty bucket would strand its frames) and the audit must be
// clean. Run it with -race -count=10.
func TestParkProbeStress(t *testing.T) {
	forEachMapper(t, func(t *testing.T, newMapping mapper) {
		top := topology.Opteron6128()
		m, err := newMapping(16<<20, top.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(top, m, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		perNode := m.Frames() / uint64(m.Nodes())
		allLLC := make([]int, m.NumLLCColors())
		for i := range allLLC {
			allLLC[i] = i
		}
		type hog struct {
			c      *serve.Client
			frames []phys.Frame
		}
		var hogs []hog
		for n := 1; n < m.Nodes(); n++ {
			h := hog{}
			if h.c, err = s.NewClient(top.CoresOfNode(topology.NodeID(n))[0]); err != nil {
				t.Fatal(err)
			}
			if err := h.c.SetColors(m.BankColorsOfNode(n), allLLC); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < perNode; i++ {
				f, err := h.c.Alloc()
				if err != nil {
					t.Fatalf("hog on node %d, frame %d: %v", n, i, err)
				}
				h.frames = append(h.frames, f)
			}
			hogs = append(hogs, h)
		}

		const workers, ops = 8, 600
		cores := top.CoresOfNode(0)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for i := 0; i < workers; i++ {
			c, err := s.NewClient(cores[i%len(cores)])
			if err != nil {
				t.Fatal(err)
			}
			if i%4 != 3 {
				// Two bank colors by two LLC colors: a handful of
				// buckets every colored worker parks to and pops from.
				if err := c.SetColors(m.BankColorsOfNode(0)[:2], []int{0, 1}); err != nil {
					t.Fatal(err)
				}
			}
			wg.Add(1)
			go func(i int, c *serve.Client) {
				defer wg.Done()
				errs[i] = churn(c, rand.New(rand.NewSource(int64(i)+1)), ops)
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		if st := s.Stats(); st.Borrows[kernel.RungBorrowColor] == 0 || st.DefaultAllocs == st.Allocs {
			t.Fatalf("the workers never reached the ladder: %+v", st)
		}
		for _, h := range hogs {
			for _, f := range h.frames {
				if err := h.c.Free(f); err != nil {
					t.Fatal(err)
				}
			}
			h.c.Close()
		}
		auditServerClean(t, s)

		drain, err := s.NewClient(cores[0])
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for {
			if _, err := drain.Alloc(); err != nil {
				if !errors.Is(err, serve.ErrNoMemory) {
					t.Fatal(err)
				}
				break
			}
			got++
		}
		if got != m.Frames() {
			t.Fatalf("drain allocated %d frames of %d: the rest are stranded", got, m.Frames())
		}
		if r := auditServerClean(t, s); r.Mapped != m.Frames() {
			t.Fatalf("%d frames outstanding after the drain, want %d", r.Mapped, m.Frames())
		}
	})
}
