package bench

import (
	"runtime"
	"testing"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline (shutdown is asynchronous: workers observe the stop signal
// on their next poll) or the deadline passes.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d, baseline %d", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunServeCellErrorPathsReleaseGoroutines is the regression for
// the error-path shutdown bug: a cell that fails after the server has
// booted must still tear down everything it started on the way out.
// Every failure injected here happens after serve.New has returned.
func TestRunServeCellErrorPathsReleaseGoroutines(t *testing.T) {
	const mem = 64 << 20
	baseline := runtime.NumGoroutine()

	// Plan failure: more clients than LLC colors. serve.New has
	// already returned when policy.Plan rejects the fleet.
	spec := ServeSpec{Name: "overcommit", Nodes: 1, Clients: 4096, Ops: 10}
	if _, err := RunServeCell(spec, mem, serve.Config{}); err == nil {
		t.Fatal("overcommitted plan accepted")
	}
	waitGoroutines(t, baseline, "plan failure")

	// Bad spec before any boot: trivially clean, pinned anyway so the
	// early-return path stays allocation-free.
	if _, err := RunServeCell(ServeSpec{Name: "empty"}, mem, serve.Config{}); err == nil {
		t.Fatal("zero spec accepted")
	}
	waitGoroutines(t, baseline, "spec rejection")

	// A successful run for contrast: everything it spawned must be
	// gone once it returns.
	spec = ServeSpec{Name: "ok", Nodes: 2, Clients: 4, Ops: 500}
	if _, err := RunServeCell(spec, mem, serve.Config{}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline, "clean run")
}
