package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Client speaks the wire protocol to one daemon over one connection.
// All methods are safe for concurrent use; the internal mutex
// serializes the synchronous request/response exchange, mirroring the
// one-op-at-a-time discipline serve.Client has per goroutine.
type Client struct {
	mu   sync.Mutex
	conn net.Conn //tintvet:guardedby mu
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte // frame read buffer, reused across exchanges
	wbuf []byte // payload build buffer, reused across exchanges
}

// Dial connects to a daemon ("unix", path or "tcp", addr) without
// opening a session; call Hello next.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
}

// exchange sends one request frame and decodes one reply frame, which
// must be want or MsgError. The returned payload aliases the client's
// read buffer: decode it before the next exchange (all callers do,
// under mu).
func (c *Client) exchange(t MsgType, payload []byte, want MsgType) ([]byte, error) {
	if err := WriteFrame(c.bw, t, payload); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	rt, rp, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return nil, err
	}
	if cap(rp) > cap(c.rbuf) {
		c.rbuf = rp[:cap(rp)]
	}
	switch rt {
	case want:
		return rp, nil
	case MsgError:
		return nil, parseError(rp)
	}
	return nil, fmt.Errorf("%w: %v reply to %v request", ErrProtocol, rt, t)
}

// Hello opens the session: version check, core pin, color claim.
// It must be the first exchange on the connection.
func (c *Client) Hello(core topology.CoreID, bank, llc []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendHello(c.wbuf[:0], Hello{Version: Version, Core: core, Bank: bank, LLC: llc})
	rp, err := c.exchange(MsgHello, c.wbuf, MsgHelloAck)
	if err != nil {
		return err
	}
	_, err = parseU32(rp, "hello_ack")
	return err
}

// Alloc requests one frame under the session's color claim.
func (c *Client) Alloc() (phys.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rp, err := c.exchange(MsgAlloc, nil, MsgAllocReply)
	if err != nil {
		return 0, err
	}
	return parseFrameID(rp, "alloc_reply")
}

// Free returns a frame obtained from Alloc or Realloc.
func (c *Client) Free(f phys.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendFrameID(c.wbuf[:0], f)
	rp, err := c.exchange(MsgFree, c.wbuf, MsgFreeReply)
	if err != nil {
		return err
	}
	p := &pr{b: rp}
	return p.done("free_reply")
}

// Realloc exchanges old for a fresh frame (serve.Client.Realloc
// semantics: allocate first, then free, unwind on failure).
func (c *Client) Realloc(old phys.Frame) (phys.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendFrameID(c.wbuf[:0], old)
	rp, err := c.exchange(MsgRealloc, c.wbuf, MsgReallocReply)
	if err != nil {
		return 0, err
	}
	return parseFrameID(rp, "realloc_reply")
}

// Stats snapshots the daemon's serving and session counters.
func (c *Client) Stats() (serve.Stats, DaemonStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rp, err := c.exchange(MsgStats, nil, MsgStatsReply)
	if err != nil {
		return serve.Stats{}, DaemonStats{}, err
	}
	return parseStats(rp)
}

// TaskSpawn submits one task spec to the daemon's pending batch and
// returns its task id.
func (c *Client) TaskSpawn(sp sched.Spec) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendSpec(c.wbuf[:0], sp)
	rp, err := c.exchange(MsgTaskSpawn, c.wbuf, MsgTaskSpawnReply)
	if err != nil {
		return 0, err
	}
	return parseU32(rp, "task_spawn_reply")
}

// TaskRun dispatches every pending spawned task through the daemon's
// scheduler under cfg and returns the run's accounting. The exchange
// blocks until the batch exits.
func (c *Client) TaskRun(cfg sched.Config) (*sched.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendConfig(c.wbuf[:0], cfg)
	rp, err := c.exchange(MsgTaskRun, c.wbuf, MsgTaskRunReply)
	if err != nil {
		return nil, err
	}
	return parseResult(rp)
}

// TaskStat reports one task's lifecycle accounting: StateNew with
// zero counters before its batch has run, the final TaskResult after.
func (c *Client) TaskStat(id uint32) (sched.TaskResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendU32(c.wbuf[:0], id)
	rp, err := c.exchange(MsgTaskStat, c.wbuf, MsgTaskStatReply)
	if err != nil {
		return sched.TaskResult{}, err
	}
	return parseTaskResult(rp)
}

// Goodbye ends the session cleanly — the daemon reclaims any frames
// the session still holds and releases its color claim, then
// acknowledges before the connection drops, so once Goodbye returns
// the session has left nothing behind — then closes the connection.
func (c *Client) Goodbye() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.exchange(MsgGoodbye, nil, MsgGoodbyeAck)
	cerr := c.conn.Close()
	if err != nil {
		return err
	}
	return cerr
}

// Close drops the connection without the Goodbye handshake. The
// daemon reclaims any frames the session still holds.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
