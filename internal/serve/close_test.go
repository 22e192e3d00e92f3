package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

func newCloseTestServer(t *testing.T) *Server {
	t.Helper()
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(64<<20, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(topo, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloseIdempotent pins the repeated-shutdown contract: a second
// Close neither panics nor lets the closed server take new clients.
func TestCloseIdempotent(t *testing.T) {
	s := newCloseTestServer(t)
	s.Close()
	s.Close()
	if _, err := s.NewClient(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewClient after close: %v, want ErrClosed", err)
	}
}

// TestConcurrentClose races many Close calls against live allocation
// traffic. Run under -race it checks that the closed mark is set
// without a data race, that a miss already running when Close lands
// completes cleanly, and that every closer returns with the server
// already refusing new work.
func TestConcurrentClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := newCloseTestServer(t)
		c, err := s.NewClient(0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					f, err := c.Alloc()
					if err != nil {
						if errors.Is(err, ErrClosed) {
							return
						}
						continue // ErrBusy/ErrNoMemory: keep pressing
					}
					if err := c.Free(f); err != nil && errors.Is(err, ErrClosed) {
						return
					}
				}
			}()
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close()
				// After any Close returns, the server must already be
				// refusing new work.
				if _, err := s.NewClient(1); !errors.Is(err, ErrClosed) {
					t.Errorf("NewClient after close: %v, want ErrClosed", err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestNoGoroutines pins that the server serves every miss in the
// allocating goroutine: New starts no goroutine, misses start none,
// and Close leaves none behind.
func TestNoGoroutines(t *testing.T) {
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(64<<20, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s, err := New(topo, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("New started %d goroutines", n-before)
	}
	c, err := s.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(m.BankColorsOfNode(0)[:2], []int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Batches == 0 {
		t.Fatal("no misses served; the loop did not reach the miss path")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("misses left %d goroutines running", n-before)
	}
	s.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Close left %d goroutines behind", n-before)
	}
}
