package wire

import (
	"fmt"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/sched"
)

// TestTaskRunsRetireClients runs K TaskRun batches, then a run with
// every task its own session, through one daemon. Each task's serve
// client and color claim must go when the task exits, as in the
// kernel, where only tasks that exist hold colors: the live clients
// and every claim count end where the first session's Hello left
// them, and at zero once that session says Goodbye.
func TestTaskRunsRetireClients(t *testing.T) {
	d, addr := newTestDaemon(t)
	srv := d.Server()
	m := srv.Mapping()
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello(0, m.BankColorsOfNode(0)[:2], []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	wantClients := len(srv.Clients())
	wantBank, wantLLC := srv.ClaimCounts()
	check := func(when string, clients int, bank, llc []int) {
		t.Helper()
		if got := len(srv.Clients()); got != clients {
			t.Errorf("%s: %d live clients, want %d", when, got, clients)
		}
		gotBank, gotLLC := srv.ClaimCounts()
		for bc := range bank {
			if gotBank[bc] != bank[bc] {
				t.Errorf("%s: bank color %d claimed %d times, want %d", when, bc, gotBank[bc], bank[bc])
			}
		}
		for lc := range llc {
			if gotLLC[lc] != llc[lc] {
				t.Errorf("%s: LLC color %d claimed %d times, want %d", when, lc, gotLLC[lc], llc[lc])
			}
		}
	}

	const k = 4
	cfg := sched.Config{Policy: sched.RR, Quantum: 16, Cores: 2}
	for run := 1; run <= k; run++ {
		for _, sp := range differentialSpecs() {
			if _, err := c.TaskSpawn(sp); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.TaskRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range res.Tasks {
			if tr.State != sched.StateExit || tr.Err != "" {
				t.Fatalf("run %d task %d ended %v (%s)", run, i, tr.State, tr.Err)
			}
		}
		check(fmt.Sprintf("after TaskRun %d", run), wantClients, wantBank, wantLLC)
	}

	assign, err := sched.PlanAssign(m, srv.Topology(), UncoloredEvery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(cfg, differentialSpecs(), &NetBackend{Network: "unix", Addr: addr, Assign: assign}); err != nil {
		t.Fatal(err)
	}
	check("after a run of one session per task", wantClients, wantBank, wantLLC)

	if err := c.Goodbye(); err != nil {
		t.Fatal(err)
	}
	check("after the last Goodbye", 0, make([]int, len(wantBank)), make([]int, len(wantLLC)))
}
