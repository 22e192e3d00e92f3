package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// UncoloredEvery is the daemon's dispatch-time assignment stride:
// every UncoloredEvery-th task of a scheduler batch runs uncolored,
// the rest claim MEM+LLC colors by task index (sched.PlanAssign). A
// differential reference must use the same stride to reproduce the
// daemon's counters.
const UncoloredEvery = 4

// Daemon owns one serve.Server and exposes it over the wire protocol:
// a data plane (Hello/Alloc/Free/Realloc/Stats/Goodbye, one serve
// client per session) and a task plane (TaskSpawn/TaskRun/TaskStat,
// batches dispatched through the internal scheduler with colors
// assigned at dispatch).
type Daemon struct {
	srv    *serve.Server
	topo   *topology.Topology
	assign sched.AssignFunc

	mu            sync.Mutex
	listeners     []net.Listener        //tintvet:guardedby mu
	conns         map[net.Conn]struct{} //tintvet:guardedby mu
	sessions      uint64                //tintvet:guardedby mu
	reclaimed     uint64                //tintvet:guardedby mu
	reclaimFailed uint64                //tintvet:guardedby mu

	taskMu  sync.Mutex
	specs   []sched.Spec       //tintvet:guardedby taskMu
	results []sched.TaskResult //tintvet:guardedby taskMu
	runs    uint64             //tintvet:guardedby taskMu
	// runActive serializes TaskRun batches without holding taskMu
	// across the (blocking) scheduler run.
	runActive atomic.Bool

	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error // written once inside closeOnce
	wg        sync.WaitGroup
}

// NewDaemon boots a server over the machine and wraps it. Close the
// daemon (not the server) when done.
func NewDaemon(topo *topology.Topology, m *phys.Mapping, cfg serve.Config) (*Daemon, error) {
	assign, err := sched.PlanAssign(m, topo, UncoloredEvery)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(topo, m, cfg)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		srv:    srv,
		topo:   topo,
		assign: assign,
		conns:  make(map[net.Conn]struct{}),
	}, nil
}

// Server exposes the wrapped server for stats and post-quiesce audits.
func (d *Daemon) Server() *serve.Server { return d.srv }

// Serve accepts sessions on l until the daemon closes (returns nil)
// or the listener fails (returns the accept error). Multiple Serve
// calls on different listeners may run concurrently.
func (d *Daemon) Serve(l net.Listener) error {
	d.mu.Lock()
	if d.closing.Load() {
		// The daemon shut down before this Serve registered: same
		// clean-shutdown outcome as a close during Accept.
		d.mu.Unlock()
		return l.Close()
	}
	d.listeners = append(d.listeners, l)
	d.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if d.closing.Load() {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closing.Load() {
			d.mu.Unlock()
			if cerr := conn.Close(); cerr != nil {
				return fmt.Errorf("wire: closing late accept: %w", cerr)
			}
			return nil
		}
		d.conns[conn] = struct{}{}
		d.sessions++
		d.mu.Unlock()
		d.wg.Add(1)
		go d.session(conn)
	}
}

// Close shuts the daemon down: listeners first, then every live
// connection (which unblocks the session handlers), then waits for
// the handlers to finish their frame-reclaiming cleanup, audits the
// quiesced server, and stops it. Idempotent and safe to race with
// Serve and in-flight sessions; every caller returns only after
// shutdown completes, with the audit verdict.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		d.closing.Store(true)
		d.mu.Lock()
		ls := append([]net.Listener(nil), d.listeners...)
		conns := make([]net.Conn, 0, len(d.conns))
		for conn := range d.conns { //tintvet:ignore maporder: teardown order does not reach any output
			conns = append(conns, conn)
		}
		d.mu.Unlock()
		for _, l := range ls {
			if err := l.Close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
		for _, conn := range conns {
			// Session handlers close their own conn on the way out;
			// racing double closes are expected here.
			_ = conn.Close() //tintvet:ignore errdrop: duplicate close racing the handler's own
		}
		d.wg.Wait()
		if err := d.AuditQuiesced(); err != nil && d.closeErr == nil {
			d.closeErr = err
		}
		d.srv.Close()
	})
	return d.closeErr
}

// AuditQuiesced runs the cross-shard invariant auditor. The caller
// must have quiesced the data plane (no in-flight Alloc/Free); the
// daemon calls it itself at the Close quiesce point.
func (d *Daemon) AuditQuiesced() error {
	return invariant.AuditServer(d.srv).Err()
}

// Stats snapshots the daemon-level counters (the serving counters
// come from the wrapped server).
func (d *Daemon) Stats() DaemonStats {
	var ds DaemonStats
	d.mu.Lock()
	ds.Sessions = d.sessions
	ds.Active = uint64(len(d.conns))
	ds.Reclaimed = d.reclaimed
	ds.ReclaimFailed = d.reclaimFailed
	d.mu.Unlock()
	d.taskMu.Lock()
	ds.TasksSpawned = uint64(len(d.specs))
	ds.TaskRuns = d.runs
	d.taskMu.Unlock()
	return ds
}

// session is one connection's handler goroutine.
func (d *Daemon) session(conn net.Conn) {
	defer d.wg.Done()
	s := &session{
		d:    d,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		conn: conn,
	}
	bye := s.loop()
	d.dropConn(conn, s, bye)
}

// dropConn ends a session. It reclaims whatever frames the session
// still owns — in frame order, so the shard state left behind is
// independent of the owned-set's map iteration order — and retires
// the session's serve client, releasing its color claim. Only then
// does it acknowledge a Goodbye, so a peer that proceeds on the ack
// finds the session fully settled. Last, it closes and untracks the
// connection.
func (d *Daemon) dropConn(conn net.Conn, s *session, bye bool) {
	var frames []phys.Frame
	for f := range s.owned { //tintvet:ignore maporder: frames are sorted before any allocator call
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	var reclaimed, failed uint64
	for _, f := range frames {
		if err := s.cl.Free(f); err != nil {
			failed++
			continue
		}
		reclaimed++
	}
	if s.cl != nil {
		s.cl.Close()
	}
	if bye {
		s.reply(MsgGoodbyeAck, nil)
	}
	_ = conn.Close() //tintvet:ignore errdrop: double close after peer loss is the normal path
	d.mu.Lock()
	delete(d.conns, conn)
	d.reclaimed += reclaimed
	d.reclaimFailed += failed
	d.mu.Unlock()
}

// session is one connection's protocol state.
type session struct {
	d    *Daemon
	br   *bufio.Reader
	bw   *bufio.Writer
	conn net.Conn
	cl   *serve.Client
	// owned tracks frames handed to this session and not yet freed,
	// so a vanished client can't strand them.
	owned map[phys.Frame]struct{}
	rbuf  []byte
	wbuf  []byte
}

// loop runs the request/response exchange until the peer says
// Goodbye (reported as true; dropConn sends the ack), drops the
// connection, or breaks the protocol.
func (s *session) loop() bool {
	for {
		t, p, err := ReadFrame(s.br, s.rbuf)
		if err != nil {
			// A clean close (io.EOF) needs no reply; a malformed
			// frame gets a best-effort error frame before the drop.
			if !errors.Is(err, io.EOF) && !s.d.closing.Load() {
				s.replyErr(err)
			}
			return false
		}
		if cap(p) > cap(s.rbuf) {
			s.rbuf = p[:cap(p)]
		}
		if t == MsgGoodbye {
			return true
		}
		if !s.handle(t, p) {
			return false
		}
	}
}

// reply writes one frame; a write failure just ends the session (the
// peer is gone).
func (s *session) reply(t MsgType, payload []byte) bool {
	if err := WriteFrame(s.bw, t, payload); err != nil {
		return false
	}
	return s.bw.Flush() == nil
}

func (s *session) replyErr(err error) bool {
	s.wbuf = appendError(s.wbuf[:0], err)
	return s.reply(MsgError, s.wbuf)
}

// handle dispatches one request frame; false ends the session.
func (s *session) handle(t MsgType, p []byte) bool {
	switch t {
	case MsgHello:
		return s.handleHello(p)
	case MsgAlloc:
		if s.cl == nil {
			return s.replyErr(fmt.Errorf("%w: alloc before hello", errInvalid))
		}
		f, err := s.cl.Alloc()
		if err != nil {
			return s.replyErr(err)
		}
		s.owned[f] = struct{}{}
		s.wbuf = appendFrameID(s.wbuf[:0], f)
		return s.reply(MsgAllocReply, s.wbuf)
	case MsgFree:
		if s.cl == nil {
			return s.replyErr(fmt.Errorf("%w: free before hello", errInvalid))
		}
		f, err := parseFrameID(p, "free")
		if err != nil {
			return s.replyErr(err)
		}
		if err := s.cl.Free(f); err != nil {
			return s.replyErr(err)
		}
		delete(s.owned, f)
		return s.reply(MsgFreeReply, nil)
	case MsgRealloc:
		if s.cl == nil {
			return s.replyErr(fmt.Errorf("%w: realloc before hello", errInvalid))
		}
		old, err := parseFrameID(p, "realloc")
		if err != nil {
			return s.replyErr(err)
		}
		f, err := s.cl.Realloc(old)
		if err != nil {
			return s.replyErr(err)
		}
		delete(s.owned, old)
		s.owned[f] = struct{}{}
		s.wbuf = appendFrameID(s.wbuf[:0], f)
		return s.reply(MsgReallocReply, s.wbuf)
	case MsgStats:
		s.wbuf = appendStats(s.wbuf[:0], s.d.srv.Stats(), s.d.Stats())
		return s.reply(MsgStatsReply, s.wbuf)
	case MsgTaskSpawn:
		return s.handleTaskSpawn(p)
	case MsgTaskRun:
		return s.handleTaskRun(p)
	case MsgTaskStat:
		return s.handleTaskStat(p)
	}
	return s.replyErr(fmt.Errorf("%w: unexpected %v request", errInvalid, t))
}

func (s *session) handleHello(p []byte) bool {
	if s.cl != nil {
		return s.replyErr(fmt.Errorf("%w: second hello on one session", errInvalid))
	}
	h, err := parseHello(p)
	if err != nil {
		return s.replyErr(err)
	}
	if h.Version != Version {
		return s.replyErr(fmt.Errorf("%w: protocol version %d, daemon speaks %d", errInvalid, h.Version, Version))
	}
	cl, err := s.d.srv.NewClient(h.Core)
	if err != nil {
		return s.replyErr(fmt.Errorf("%w: %v", errInvalid, err))
	}
	if len(h.Bank) > 0 || len(h.LLC) > 0 {
		if err := cl.SetColors(h.Bank, h.LLC); err != nil {
			cl.Close()
			return s.replyErr(fmt.Errorf("%w: %v", errInvalid, err))
		}
	}
	s.cl = cl
	s.owned = make(map[phys.Frame]struct{})
	s.wbuf = appendU32(s.wbuf[:0], uint32(cl.ID()))
	return s.reply(MsgHelloAck, s.wbuf)
}

func (s *session) handleTaskSpawn(p []byte) bool {
	sp, err := parseSpec(p)
	if err != nil {
		return s.replyErr(err)
	}
	d := s.d
	d.taskMu.Lock()
	if len(d.specs)-len(d.results) >= maxTasks {
		d.taskMu.Unlock()
		return s.replyErr(fmt.Errorf("%w: pending task batch full (%d)", errInvalid, maxTasks))
	}
	id := uint32(len(d.specs))
	d.specs = append(d.specs, sp)
	d.taskMu.Unlock()
	s.wbuf = appendU32(s.wbuf[:0], id)
	return s.reply(MsgTaskSpawnReply, s.wbuf)
}

func (s *session) handleTaskRun(p []byte) bool {
	cfg, err := parseConfig(p)
	if err != nil {
		return s.replyErr(err)
	}
	d := s.d
	if !d.runActive.CompareAndSwap(false, true) {
		return s.replyErr(fmt.Errorf("%w: a task run is already in progress", errInvalid))
	}
	defer d.runActive.Store(false)
	d.taskMu.Lock()
	batch := append([]sched.Spec(nil), d.specs[len(d.results):]...)
	d.taskMu.Unlock()
	res, err := sched.Run(cfg, batch, sched.NewServeBackend(d.srv, d.assign))
	if err != nil {
		return s.replyErr(fmt.Errorf("%w: %v", errInvalid, err))
	}
	d.taskMu.Lock()
	d.results = append(d.results, res.Tasks...)
	d.runs++
	d.taskMu.Unlock()
	s.wbuf = appendResult(s.wbuf[:0], res)
	return s.reply(MsgTaskRunReply, s.wbuf)
}

func (s *session) handleTaskStat(p []byte) bool {
	id, err := parseU32(p, "task_stat")
	if err != nil {
		return s.replyErr(err)
	}
	d := s.d
	d.taskMu.Lock()
	var tr sched.TaskResult
	known := id < uint32(len(d.specs))
	if id < uint32(len(d.results)) {
		tr = d.results[id]
	}
	d.taskMu.Unlock()
	if !known {
		return s.replyErr(fmt.Errorf("%w: unknown task %d", errInvalid, id))
	}
	s.wbuf = appendTaskResult(s.wbuf[:0], tr)
	return s.reply(MsgTaskStatReply, s.wbuf)
}
