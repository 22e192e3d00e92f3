// Package wire lifts the in-process serving layer (internal/serve)
// behind a length-prefixed binary frame protocol, so many OS
// processes can hammer one allocation daemon (cmd/tintserved) over a
// unix socket or TCP.
//
// Every frame is
//
//	[u32 big-endian length][u8 message type][payload]
//
// where length counts the type byte plus the payload and is bounded
// by MaxFrameLen. The protocol is strictly synchronous: a client
// sends one request frame and reads exactly one reply frame (the
// requested reply type, or MsgError). That request/response
// discipline is what keeps the daemon's allocation order — and
// therefore its serve.Stats counters — a pure function of the client
// scripts, which the differential tests pin byte-identical to the
// in-process reference.
//
// Payload integers are fixed-width big-endian. Variable-length
// fields (color lists, task tables, error strings) carry explicit
// counts that decoders bound-check before allocating, so a garbage
// frame fails with ErrProtocol instead of an absurd allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const (
	// Version is the protocol version carried in Hello; the daemon
	// rejects a mismatch rather than guessing.
	Version = 2
	// MaxFrameLen bounds one frame's length field (type byte +
	// payload). Large enough for the biggest legitimate reply (a task
	// table at maxTasks), small enough that a garbage length can't
	// balloon a read buffer.
	MaxFrameLen = 1 << 16
	// maxColors bounds a Hello's color lists.
	maxColors = 1 << 12
	// maxTasks bounds a task table in one TaskRunReply; together with
	// maxTaskErr it keeps the worst-case reply under MaxFrameLen
	// (512 * (35 + 80) + 50 < 1<<16). The daemon enforces it at
	// TaskSpawn.
	maxTasks = 512
	// maxTaskErr bounds one task's encoded error string.
	maxTaskErr = 80
	// maxErrLen bounds an error frame's message.
	maxErrLen = 1 << 10
)

// ErrProtocol reports a malformed frame or payload: bad length,
// unexpected type, trailing bytes, or a count field out of bounds.
// Peers treat it as fatal to the connection.
var ErrProtocol = errors.New("wire: protocol error")

// MsgType labels one frame.
type MsgType uint8

const (
	MsgError MsgType = iota + 1
	MsgHello
	MsgHelloAck
	MsgGoodbye
	MsgGoodbyeAck
	MsgAlloc
	MsgAllocReply
	MsgFree
	MsgFreeReply
	MsgRealloc
	MsgReallocReply
	MsgStats
	MsgStatsReply
	MsgTaskSpawn
	MsgTaskSpawnReply
	MsgTaskRun
	MsgTaskRunReply
	MsgTaskStat
	MsgTaskStatReply
	msgTypeEnd // one past the last valid type
)

func (t MsgType) String() string {
	switch t {
	case MsgError:
		return "error"
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello_ack"
	case MsgGoodbye:
		return "goodbye"
	case MsgGoodbyeAck:
		return "goodbye_ack"
	case MsgAlloc:
		return "alloc"
	case MsgAllocReply:
		return "alloc_reply"
	case MsgFree:
		return "free"
	case MsgFreeReply:
		return "free_reply"
	case MsgRealloc:
		return "realloc"
	case MsgReallocReply:
		return "realloc_reply"
	case MsgStats:
		return "stats"
	case MsgStatsReply:
		return "stats_reply"
	case MsgTaskSpawn:
		return "task_spawn"
	case MsgTaskSpawnReply:
		return "task_spawn_reply"
	case MsgTaskRun:
		return "task_run"
	case MsgTaskRunReply:
		return "task_run_reply"
	case MsgTaskStat:
		return "task_stat"
	case MsgTaskStatReply:
		return "task_stat_reply"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// WriteFrame writes one frame. The payload must fit MaxFrameLen-1.
// A writer that is also an io.ByteWriter (bufio.Writer, bytes.Buffer)
// takes the header byte by byte, so no header array escapes to the
// heap and the call allocates nothing.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrameLen {
		return fmt.Errorf("%w: frame length %d exceeds %d", ErrProtocol, n, MaxFrameLen)
	}
	if bw, ok := w.(io.ByteWriter); ok {
		for _, b := range [5]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), byte(t)} {
			if err := bw.WriteByte(b); err != nil {
				return err
			}
		}
	} else {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(n))
		hdr[4] = byte(t)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, reusing buf when it is large enough: the
// length header is read into buf's first bytes, then the frame over
// it, so with a reused buffer the call allocates nothing. It returns
// io.EOF only on a clean close (zero bytes read); a frame truncated
// mid-way, an empty frame, an unknown type, or a length beyond
// MaxFrameLen all fail with an ErrProtocol-wrapped error.
func ReadFrame(r io.Reader, buf []byte) (MsgType, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 64) // the header, and most frames after it
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrProtocol, err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrProtocol)
	}
	if n > MaxFrameLen {
		return 0, nil, fmt.Errorf("%w: frame length %d exceeds %d", ErrProtocol, n, MaxFrameLen)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame body: %v", ErrProtocol, err)
	}
	t := MsgType(buf[0])
	if t == 0 || t >= msgTypeEnd {
		return 0, nil, fmt.Errorf("%w: unknown message type %d", ErrProtocol, buf[0])
	}
	return t, buf[1:], nil
}

// --- payload encoding helpers ---

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// pr is a bounds-checked payload reader: every accessor degrades to
// zero once the payload runs short, and the terminal done() check
// reports both truncation and trailing garbage as ErrProtocol.
type pr struct {
	b   []byte
	bad bool
}

func (p *pr) u8() uint8 {
	if len(p.b) < 1 {
		p.bad = true
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

func (p *pr) u16() uint16 {
	if len(p.b) < 2 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint16(p.b)
	p.b = p.b[2:]
	return v
}

func (p *pr) u32() uint32 {
	if len(p.b) < 4 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(p.b)
	p.b = p.b[4:]
	return v
}

func (p *pr) u64() uint64 {
	if len(p.b) < 8 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(p.b)
	p.b = p.b[8:]
	return v
}

func (p *pr) bytes(n int) []byte {
	if n < 0 || len(p.b) < n {
		p.bad = true
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

func (p *pr) done(what string) error {
	if p.bad {
		return fmt.Errorf("%w: truncated %s payload", ErrProtocol, what)
	}
	if len(p.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s payload", ErrProtocol, len(p.b), what)
	}
	return nil
}

func appendColors(b []byte, colors []int) []byte {
	b = appendU16(b, uint16(len(colors)))
	for _, c := range colors {
		b = appendU16(b, uint16(c))
	}
	return b
}

func (p *pr) colors() []int {
	n := int(p.u16())
	if n > maxColors {
		p.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int(p.u16()))
	}
	if p.bad {
		return nil
	}
	return out
}

// --- error frames ---

// Error codes map the serving layer's sentinel errors across the
// wire, so errors.Is works identically against a daemon and against
// the in-process server.
const (
	codeBusy uint8 = iota + 1
	codeNoMemory
	codeClosed
	codeNotOwner
	codeInvalid  // semantic rejection (bad hello, bad colors, bad config)
	codeInternal // daemon-side failure that maps to no sentinel
)

// RemoteError is a daemon-reported failure with no local sentinel.
type RemoteError struct {
	Code uint8
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error (code %d): %s", e.Code, e.Msg)
}

// errorCode classifies err for an error frame.
func errorCode(err error) uint8 {
	switch {
	case errors.Is(err, serve.ErrBusy):
		return codeBusy
	case errors.Is(err, serve.ErrNoMemory):
		return codeNoMemory
	case errors.Is(err, serve.ErrClosed):
		return codeClosed
	case errors.Is(err, serve.ErrNotOwner):
		return codeNotOwner
	case errors.Is(err, errInvalid):
		return codeInvalid
	}
	return codeInternal
}

// errInvalid tags daemon-side semantic rejections.
var errInvalid = errors.New("wire: invalid request")

func appendError(b []byte, err error) []byte {
	msg := err.Error()
	if len(msg) > maxErrLen {
		msg = msg[:maxErrLen]
	}
	b = append(b, errorCode(err))
	b = appendU16(b, uint16(len(msg)))
	return append(b, msg...)
}

// parseError decodes an error frame back into the matching sentinel
// (wrapped with the daemon's message) or a RemoteError.
func parseError(payload []byte) error {
	p := &pr{b: payload}
	code := p.u8()
	n := int(p.u16())
	if n > maxErrLen {
		return fmt.Errorf("%w: error message length %d", ErrProtocol, n)
	}
	msg := string(p.bytes(n))
	if err := p.done("error"); err != nil {
		return err
	}
	switch code {
	case codeBusy:
		return serve.ErrBusy
	case codeNoMemory:
		return serve.ErrNoMemory
	case codeClosed:
		return serve.ErrClosed
	case codeNotOwner:
		return serve.ErrNotOwner
	case codeInvalid:
		return fmt.Errorf("%w: %s", errInvalid, msg)
	}
	return &RemoteError{Code: code, Msg: msg}
}

// --- hello ---

// Hello opens a session: protocol version, the core the client pins
// to, and its color claim (both lists empty for an uncolored client).
type Hello struct {
	Version uint16
	Core    topology.CoreID
	Bank    []int
	LLC     []int
}

func appendHello(b []byte, h Hello) []byte {
	b = appendU16(b, h.Version)
	b = appendU32(b, uint32(h.Core))
	b = appendColors(b, h.Bank)
	return appendColors(b, h.LLC)
}

func parseHello(payload []byte) (Hello, error) {
	p := &pr{b: payload}
	h := Hello{
		Version: p.u16(),
		Core:    topology.CoreID(p.u32()),
		Bank:    p.colors(),
		LLC:     p.colors(),
	}
	return h, p.done("hello")
}

// --- fixed-size payloads ---

func appendFrameID(b []byte, f phys.Frame) []byte { return appendU64(b, uint64(f)) }

func parseFrameID(payload []byte, what string) (phys.Frame, error) {
	p := &pr{b: payload}
	f := phys.Frame(p.u64())
	return f, p.done(what)
}

func parseU32(payload []byte, what string) (uint32, error) {
	p := &pr{b: payload}
	v := p.u32()
	return v, p.done(what)
}

// --- stats ---

// DaemonStats counts daemon-level activity the serve counters don't
// see: sessions, session-cleanup reclaims, and task-plane traffic.
type DaemonStats struct {
	Sessions      uint64 // sessions accepted over the daemon's lifetime
	Active        uint64 // sessions currently open
	Reclaimed     uint64 // frames reclaimed by session cleanup
	ReclaimFailed uint64 // cleanup frees that failed (bookkeeping bugs)
	TasksSpawned  uint64 // task specs accepted by TaskSpawn
	TaskRuns      uint64 // completed TaskRun batches
}

func appendStats(b []byte, st serve.Stats, ds DaemonStats) []byte {
	b = appendU64(b, st.Allocs)
	b = appendU64(b, st.Frees)
	b = appendU64(b, st.ColoredPages)
	b = appendU64(b, st.DefaultAllocs)
	b = append(b, byte(len(st.Borrows)))
	for _, v := range st.Borrows {
		b = appendU64(b, v)
	}
	b = appendU64(b, uint64(st.Loans))
	b = appendU64(b, st.Refills)
	b = appendU64(b, st.RefillFrames)
	b = appendU64(b, st.Batches)
	b = appendU64(b, st.BatchedReqs)
	b = appendU64(b, st.Rejected)
	b = appendU64(b, st.Parked)
	b = appendU64(b, st.FreeFrames)
	b = appendU64(b, ds.Sessions)
	b = appendU64(b, ds.Active)
	b = appendU64(b, ds.Reclaimed)
	b = appendU64(b, ds.ReclaimFailed)
	b = appendU64(b, ds.TasksSpawned)
	return appendU64(b, ds.TaskRuns)
}

func parseStats(payload []byte) (serve.Stats, DaemonStats, error) {
	p := &pr{b: payload}
	var st serve.Stats
	var ds DaemonStats
	st.Allocs = p.u64()
	st.Frees = p.u64()
	st.ColoredPages = p.u64()
	st.DefaultAllocs = p.u64()
	if n := int(p.u8()); n != int(kernel.NumRungs) && !p.bad {
		return st, ds, fmt.Errorf("%w: %d borrow rungs, want %d", ErrProtocol, n, kernel.NumRungs)
	}
	for i := range st.Borrows {
		st.Borrows[i] = p.u64()
	}
	st.Loans = int(int64(p.u64()))
	st.Refills = p.u64()
	st.RefillFrames = p.u64()
	st.Batches = p.u64()
	st.BatchedReqs = p.u64()
	st.Rejected = p.u64()
	st.Parked = p.u64()
	st.FreeFrames = p.u64()
	ds.Sessions = p.u64()
	ds.Active = p.u64()
	ds.Reclaimed = p.u64()
	ds.ReclaimFailed = p.u64()
	ds.TasksSpawned = p.u64()
	ds.TaskRuns = p.u64()
	return st, ds, p.done("stats")
}

// --- task plane ---

func appendSpec(b []byte, sp sched.Spec) []byte {
	b = appendU32(b, sp.Arrival)
	b = appendU32(b, sp.Ops)
	b = appendU32(b, sp.BlockEvery)
	b = appendU32(b, sp.BlockFor)
	return appendU64(b, uint64(sp.Seed))
}

func parseSpec(payload []byte) (sched.Spec, error) {
	p := &pr{b: payload}
	sp := sched.Spec{
		Arrival:    p.u32(),
		Ops:        p.u32(),
		BlockEvery: p.u32(),
		BlockFor:   p.u32(),
		Seed:       int64(p.u64()),
	}
	return sp, p.done("task_spawn")
}

func appendConfig(b []byte, cfg sched.Config) []byte {
	b = append(b, byte(cfg.Policy))
	b = appendU32(b, uint32(cfg.Quantum))
	b = appendU32(b, uint32(cfg.Cores))
	return appendU64(b, cfg.MaxTicks)
}

func parseConfig(payload []byte) (sched.Config, error) {
	p := &pr{b: payload}
	cfg := sched.Config{
		Policy:   sched.Policy(p.u8()),
		Quantum:  int(int32(p.u32())),
		Cores:    int(int32(p.u32())),
		MaxTicks: p.u64(),
	}
	return cfg, p.done("task_run")
}

func appendTaskResult(b []byte, tr sched.TaskResult) []byte {
	b = append(b, byte(tr.State))
	b = appendU64(b, tr.Completed)
	b = appendU64(b, tr.Dispatches)
	b = appendU64(b, tr.Preemptions)
	b = appendU64(b, tr.Blocks)
	msg := tr.Err
	if len(msg) > maxTaskErr {
		msg = msg[:maxTaskErr]
	}
	b = appendU16(b, uint16(len(msg)))
	return append(b, msg...)
}

func (p *pr) taskResult() sched.TaskResult {
	tr := sched.TaskResult{
		State:       sched.State(p.u8()),
		Completed:   p.u64(),
		Dispatches:  p.u64(),
		Preemptions: p.u64(),
		Blocks:      p.u64(),
	}
	n := int(p.u16())
	if n > maxTaskErr {
		p.bad = true
		return tr
	}
	tr.Err = string(p.bytes(n))
	return tr
}

func appendResult(b []byte, res *sched.Result) []byte {
	b = appendU64(b, res.Ticks)
	b = appendU64(b, res.Dispatches)
	b = appendU64(b, res.Preemptions)
	b = appendU64(b, res.Blocks)
	b = appendU64(b, res.Ops)
	b = appendU64(b, res.IdleCores)
	b = appendU16(b, uint16(len(res.Tasks)))
	for _, tr := range res.Tasks {
		b = appendTaskResult(b, tr)
	}
	return b
}

func parseResult(payload []byte) (*sched.Result, error) {
	p := &pr{b: payload}
	res := &sched.Result{
		Ticks:       p.u64(),
		Dispatches:  p.u64(),
		Preemptions: p.u64(),
		Blocks:      p.u64(),
		Ops:         p.u64(),
		IdleCores:   p.u64(),
	}
	n := int(p.u16())
	if n > maxTasks {
		return nil, fmt.Errorf("%w: task table of %d entries", ErrProtocol, n)
	}
	res.Tasks = make([]sched.TaskResult, 0, n)
	for i := 0; i < n; i++ {
		res.Tasks = append(res.Tasks, p.taskResult())
	}
	if err := p.done("task_run_reply"); err != nil {
		return nil, err
	}
	return res, nil
}

func parseTaskResult(payload []byte) (sched.TaskResult, error) {
	p := &pr{b: payload}
	tr := p.taskResult()
	return tr, p.done("task_stat_reply")
}
