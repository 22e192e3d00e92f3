package bench

import (
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// A small serve cell, so CI exercises the serving path end to end
// (churn, drain, cross-shard audit).
func TestServeCell(t *testing.T) {
	spec := ServeSpec{Name: "test_2_nodes_4_clients", Nodes: 2, Clients: 4, Ops: 400}
	const memBytes = 64 << 20

	res, err := RunServeCell(spec, memBytes, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 clients x 400 ops plus the final drain; short of exhaustion
	// the churn always completes its budget.
	if res.Ops < 4*400 {
		t.Errorf("ops = %d, want >= %d", res.Ops, 4*400)
	}
	if res.Stats.Allocs != res.Stats.Frees {
		t.Errorf("leak: %d allocs vs %d frees", res.Stats.Allocs, res.Stats.Frees)
	}
}
