package wire

import (
	"net"
	"sync"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// pipeListener hands Daemon.Serve the daemon ends of in-memory
// net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestZeroAllocExchange gates the wire exchange: an Alloc and a Free
// from a colored session, each a request frame and a reply frame over
// net.Pipe to a daemon, allocate nothing once the buffers are warm —
// client and daemon session together, since testing.AllocsPerRun
// counts mallocs from every goroutine. Under the race detector the
// instrumentation itself allocates, so the gate is skipped.
func TestZeroAllocExchange(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	topo, m := testPlatform(t)
	d, err := NewDaemon(topo, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- d.Serve(l) }()
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("daemon serve: %v", err)
		}
	})
	cli, srv := net.Pipe()
	l.conns <- srv
	c := NewClient(cli)
	if err := c.Hello(0, m.BankColorsOfNode(0)[:4], []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pair := func() {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := c.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	// Settle the read and write buffers, the session's owned set and
	// the color buckets before measuring.
	for i := 0; i < 64; i++ {
		pair()
	}
	if n := testing.AllocsPerRun(200, pair); n != 0 {
		t.Errorf("Alloc+Free exchange: %v allocs/op, want 0", n)
	}
	if err := c.Goodbye(); err != nil {
		t.Fatal(err)
	}
}
