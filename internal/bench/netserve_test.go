package bench

import (
	"reflect"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/wire"
)

func TestRunNetServeCell(t *testing.T) {
	spec := NetServeSpec{Name: "4_conns", Conns: 4, Ops: 400}
	cell, err := RunNetServeCell(spec, 64<<20, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if cell.Stats.Allocs != cell.Stats.Frees {
		t.Fatalf("unbalanced after drain: %+v", cell.Stats)
	}
	if cell.Daemon.Sessions != 4 {
		t.Fatalf("sessions %d, want 4", cell.Daemon.Sessions)
	}
}

// onDaemon's verdict on a clean cell is the daemon's closing audit: a
// cell that retires a client while it still holds a frame leaves the
// server unbalanced at quiesce, and onDaemon must return the audit's
// violation.
func TestOnDaemonReturnsAudit(t *testing.T) {
	_, err := onDaemon(64<<20, serve.Config{}, func(d *wire.Daemon, addr string) error {
		c, err := d.Server().NewClient(0)
		if err != nil {
			return err
		}
		if _, err := c.Alloc(); err != nil {
			return err
		}
		c.Close()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "owned by unknown client") {
		t.Fatalf("onDaemon = %v, want the closing audit's violation", err)
	}
}

func TestRunNetServeCellRejectsBadSpec(t *testing.T) {
	if _, err := RunNetServeCell(NetServeSpec{Name: "zero"}, 64<<20, serve.Config{}); err == nil {
		t.Fatal("zero spec accepted")
	}
}

// TestRunChurnCellDeterministic pins the task-churn cell's claim:
// the daemon's serial dispatch scheduler makes both the scheduler
// result and the serving counters spec-determined, run to run.
func TestRunChurnCellDeterministic(t *testing.T) {
	spec := ChurnSpec{Name: "rr_4", Policy: sched.RR, Tasks: 4, Ops: 200}
	a, err := RunChurnCell(spec, 64<<20, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurnCell(spec, 64<<20, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Errorf("scheduler results vary run to run:\n%+v\n%+v", a.Result, b.Result)
	}
	if a.Stats != b.Stats {
		t.Errorf("serving counters vary run to run:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Result.Ops == 0 || len(a.Result.Tasks) != spec.Tasks {
		t.Errorf("implausible result: %+v", a.Result)
	}
}

func TestRunChurnCellRejectsBadSpec(t *testing.T) {
	if _, err := RunChurnCell(ChurnSpec{Name: "zero", Policy: sched.FIFO}, 64<<20, serve.Config{}); err == nil {
		t.Fatal("zero spec accepted")
	}
}
