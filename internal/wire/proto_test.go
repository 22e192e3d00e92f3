package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
)

func TestFrameRoundTripEveryType(t *testing.T) {
	payloads := map[MsgType][]byte{
		MsgError:          appendError(nil, serve.ErrBusy),
		MsgHello:          appendHello(nil, Hello{Version: 1, Core: 3, Bank: []int{1, 2}, LLC: []int{7}}),
		MsgHelloAck:       appendU32(nil, 42),
		MsgGoodbye:        nil,
		MsgGoodbyeAck:     nil,
		MsgAlloc:          nil,
		MsgAllocReply:     appendFrameID(nil, 99),
		MsgFree:           appendFrameID(nil, 99),
		MsgFreeReply:      nil,
		MsgRealloc:        appendFrameID(nil, 12),
		MsgReallocReply:   appendFrameID(nil, 13),
		MsgStats:          nil,
		MsgStatsReply:     appendStats(nil, serve.Stats{Allocs: 5}, DaemonStats{Sessions: 2}),
		MsgTaskSpawn:      appendSpec(nil, sched.Spec{Ops: 10}),
		MsgTaskSpawnReply: appendU32(nil, 0),
		MsgTaskRun:        appendConfig(nil, sched.Config{Policy: sched.RR, Quantum: 8}),
		MsgTaskRunReply:   appendResult(nil, &sched.Result{Ticks: 1}),
		MsgTaskStat:       appendU32(nil, 0),
		MsgTaskStatReply:  appendTaskResult(nil, sched.TaskResult{State: sched.StateExit}),
	}
	for typ := MsgError; typ < msgTypeEnd; typ++ {
		payload, ok := payloads[typ]
		if !ok {
			t.Fatalf("no round-trip coverage for %v", typ)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("%v: write: %v", typ, err)
		}
		gotType, gotPayload, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("%v: read: %v", typ, err)
		}
		if gotType != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("%v: round-trip mismatch: %v %x vs %x", typ, gotType, gotPayload, payload)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{Version: 1, Core: 0},
		{Version: 1, Core: 15, Bank: []int{0, 1, 2, 3}, LLC: []int{9, 10}},
		{Version: 7, Core: 2, LLC: []int{5}},
	} {
		got, err := parseHello(appendHello(nil, h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("hello round-trip: got %+v want %+v", got, h)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := serve.Stats{
		Allocs: 101, Frees: 90, ColoredPages: 70, DefaultAllocs: 31,
		Loans: 3, Refills: 9, RefillFrames: 288, Batches: 9, BatchedReqs: 12,
		Rejected: 4, Parked: 200, FreeFrames: 5000,
	}
	st.Borrows[0], st.Borrows[1], st.Borrows[2] = 5, 6, 7
	ds := DaemonStats{Sessions: 9, Active: 4, Reclaimed: 17, ReclaimFailed: 1, TasksSpawned: 30, TaskRuns: 2}
	gotSt, gotDs, err := parseStats(appendStats(nil, st, ds))
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != st || gotDs != ds {
		t.Fatalf("stats round-trip:\n%+v\n%+v", gotSt, gotDs)
	}
}

func TestSpecConfigResultRoundTrip(t *testing.T) {
	sp := sched.Spec{Arrival: 3, Ops: 500, BlockEvery: 25, BlockFor: 2, Seed: -12345}
	gotSp, err := parseSpec(appendSpec(nil, sp))
	if err != nil || gotSp != sp {
		t.Fatalf("spec round-trip: %+v %v", gotSp, err)
	}
	cfg := sched.Config{Policy: sched.VRR, Quantum: 16, Cores: 4, MaxTicks: 1 << 20}
	gotCfg, err := parseConfig(appendConfig(nil, cfg))
	if err != nil || gotCfg != cfg {
		t.Fatalf("config round-trip: %+v %v", gotCfg, err)
	}
	res := &sched.Result{
		Ticks: 40, Dispatches: 12, Preemptions: 3, Blocks: 2, Ops: 900, IdleCores: 5,
		Tasks: []sched.TaskResult{
			{State: sched.StateExit, Completed: 450, Dispatches: 6, Preemptions: 2, Blocks: 1},
			{State: sched.StateExit, Completed: 450, Dispatches: 6, Preemptions: 1, Blocks: 1, Err: "drain: boom"},
		},
	}
	gotRes, err := parseResult(appendResult(nil, res))
	if err != nil || !reflect.DeepEqual(gotRes, res) {
		t.Fatalf("result round-trip: %+v %v", gotRes, err)
	}
	tr := res.Tasks[1]
	gotTr, err := parseTaskResult(appendTaskResult(nil, tr))
	if err != nil || gotTr != tr {
		t.Fatalf("task result round-trip: %+v %v", gotTr, err)
	}
}

func TestErrorCodesMapToSentinels(t *testing.T) {
	for _, want := range []error{serve.ErrBusy, serve.ErrNoMemory, serve.ErrClosed, serve.ErrNotOwner} {
		got := parseError(appendError(nil, want))
		if !errors.Is(got, want) {
			t.Fatalf("sentinel %v did not survive the wire: %v", want, got)
		}
	}
	got := parseError(appendError(nil, errors.New("weird internal state")))
	var re *RemoteError
	if !errors.As(got, &re) || !strings.Contains(re.Msg, "weird") {
		t.Fatalf("internal error should come back as RemoteError, got %v", got)
	}
	inv := parseError(appendError(nil, errors.New("wire: invalid request: bad colors")))
	if inv == nil {
		t.Fatal("invalid error vanished")
	}
}

// TestGoldenFrameBytes pins the on-the-wire encoding: a change here
// is a protocol version bump, not a refactor.
func TestGoldenFrameBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, appendHello(nil, Hello{Version: 1, Core: 5, Bank: []int{2, 3}, LLC: []int{1}})); err != nil {
		t.Fatal(err)
	}
	const wantHello = "00000011" + "02" + "0001" + "00000005" + "0002" + "0002" + "0003" + "0001" + "0001"
	if got := hex.EncodeToString(buf.Bytes()); got != wantHello {
		t.Fatalf("hello frame bytes drifted:\n got %s\nwant %s", got, wantHello)
	}
	buf.Reset()
	if err := WriteFrame(&buf, MsgAllocReply, appendFrameID(nil, 0x1234)); err != nil {
		t.Fatal(err)
	}
	const wantAlloc = "00000009" + "07" + "0000000000001234"
	if got := hex.EncodeToString(buf.Bytes()); got != wantAlloc {
		t.Fatalf("alloc reply bytes drifted:\n got %s\nwant %s", got, wantAlloc)
	}
	// A writer that is not an io.ByteWriter takes the header in one
	// Write; the bytes are the same.
	buf.Reset()
	if err := WriteFrame(struct{ io.Writer }{&buf}, MsgAllocReply, appendFrameID(nil, 0x1234)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != wantAlloc {
		t.Fatalf("alloc reply bytes through a plain io.Writer drifted:\n got %s\nwant %s", got, wantAlloc)
	}
	// The stats reply is fixed-width: 4 serve counters, the rung count
	// byte, 3 rung counters, 8 more serve counters, 6 daemon counters.
	const wantStatsLen = 8*4 + 1 + 8*3 + 8*8 + 8*6
	if got := len(appendStats(nil, serve.Stats{}, DaemonStats{})); got != wantStatsLen {
		t.Fatalf("stats reply is %d bytes, want %d", got, wantStatsLen)
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":      {0, 0, 0, 0},
		"oversized length": {0xff, 0xff, 0xff, 0xff, 1},
		"unknown type":     {0, 0, 0, 1, 0xee},
		"zero type":        {0, 0, 0, 1, 0x00},
		"truncated body":   {0, 0, 0, 9, byte(MsgAllocReply), 1, 2},
		"truncated header": {0, 0},
	}
	for name, data := range cases {
		_, _, err := ReadFrame(bytes.NewReader(data), nil)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want ErrProtocol", name, err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("clean close: got %v, want io.EOF", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	if err := WriteFrame(io.Discard, MsgStats, make([]byte, MaxFrameLen)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("got %v, want ErrProtocol", err)
	}
}
