package bench_test

import (
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/fault"
	"github.com/tintmalloc/tintmalloc/internal/suite"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// The differential battery behind the scatter/gather determinism
// contract (DESIGN.md Sec. 8): every experiment must render
// byte-identical output whether its cells run sequentially or on
// eight workers. The renders go through WriteJSON so the comparison
// covers runtimes, idle, engine-op counts and the diagnostic
// fractions of every cell, not just headline means. The figure
// experiments run their registry entries through suite.Run, as
// tintbench does. CI runs this
// under -race, which additionally catches any unsynchronized sharing
// between cells even when it happens not to change the output.
func TestParallelExperimentsMatchSequential(t *testing.T) {
	mach := newMachine(t)
	cfg, err := bench.ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	params := workload.Params{Seed: 1, Scale: 0.1}
	wl := workload.Synthetic()
	fig10, paper := synthEntry(t, "fig10"), synthEntry(t, "paper")
	perthread, detail := synthEntry(t, "perthread-lbm"), synthEntry(t, "detail-lbm")
	cells := func(s suite.Suite, repeats, workers int) ([]bench.Cell, error) {
		r, err := suite.Run(mach, s, params, repeats, workers)
		if err != nil {
			return nil, err
		}
		return r.Cells, nil
	}

	experiments := []struct {
		name   string
		render func(workers int) (string, error)
	}{
		{"latency", func(workers int) (string, error) {
			r, err := bench.RunLatency(mach, 0, 128, workers)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			r.WriteTable(&sb)
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
		{"fig10", func(workers int) (string, error) {
			c, err := cells(fig10, 2, workers)
			if err != nil {
				return "", err
			}
			r := bench.NewFig10Result(c)
			var sb strings.Builder
			r.WriteTable(&sb)
			if err := r.WriteCSV(&sb); err != nil {
				return "", err
			}
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
		{"suite", func(workers int) (string, error) {
			c, err := cells(paper, 2, workers)
			if err != nil {
				return "", err
			}
			r := bench.NewSuiteResult(c)
			var sb strings.Builder
			r.WriteRuntimeTable(&sb)
			r.WriteIdleTable(&sb)
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
		{"perthread", func(workers int) (string, error) {
			c, err := cells(perthread, 1, workers)
			if err != nil {
				return "", err
			}
			r := bench.NewPerThreadResult(c)
			var sb strings.Builder
			r.WriteTable(&sb)
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
		{"detail", func(workers int) (string, error) {
			c, err := cells(detail, 2, workers)
			if err != nil {
				return "", err
			}
			r := bench.NewDetailResult(c)
			var sb strings.Builder
			r.WriteTable(&sb)
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
		{"chaos", func(workers int) (string, error) {
			r, err := bench.RunChaos(mach, cfg, "MEM+LLC", []workload.Workload{wl},
				fault.Plans(), params, workers)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			r.WriteTable(&sb)
			if err := r.WriteCSV(&sb); err != nil {
				return "", err
			}
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
		{"sweep", func(workers int) (string, error) {
			r, err := bench.RunSweep(bench.SweepHopCycles, []float64{0, 50}, wl,
				"4_threads_4_nodes", params, 2, 1<<30, workers)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			r.WriteTable(&sb)
			err = r.WriteJSON(&sb)
			return sb.String(), err
		}},
	}

	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			seq, err := e.render(1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.render(8)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("%s output differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					e.name, seq, par)
			}
		})
	}
}

// Gather itself: order, error selection, and the degenerate worker
// counts the experiments rely on.
func TestGather(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		got, err := bench.Gather(10, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	// Lowest-index error wins regardless of completion order.
	_, err := bench.Gather(10, 4, func(i int) (int, error) {
		if i == 7 || i == 3 {
			return 0, errIndexed(i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Fatalf("Gather error = %v, want job 3", err)
	}
	// n == 0 is a no-op.
	if out, err := bench.Gather(0, 4, func(i int) (int, error) { return 0, errIndexed(i) }); err != nil || len(out) != 0 {
		t.Fatalf("Gather(0) = %v, %v", out, err)
	}
}

type errIndexed int

func (e errIndexed) Error() string { return "job " + string(rune('0'+int(e))) + " failed" }
