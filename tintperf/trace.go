package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a program layer, made by the
// benchmark's own code. Parent is the index of the enclosing span,
// or -1.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is the untraced run: every method is a no-op, so call sites
// need no branches. Individual wire Alloc/Free calls are too many to
// keep one by one; they go into latency histograms instead.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	now := float64(time.Since(tr.t0).Nanoseconds()) / 1e3
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, StartUS: now, EndUS: now, Parent: parent})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := float64(time.Since(tr.t0).Nanoseconds()) / 1e3
	tr.mu.Lock()
	tr.spans[id].EndUS = now
	tr.mu.Unlock()
}

// add records a span whose times were stamped by the caller.
func (tr *tracer) add(name string, start, end time.Time, parent int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{
		Name:    name,
		StartUS: float64(start.Sub(tr.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(tr.t0).Nanoseconds()) / 1e3,
		Parent:  parent,
	})
}

// seconds returns the durations, in seconds, of every span named name.
func (tr *tracer) seconds(name string) []float64 {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (tr *tracer) write(path string) error {
	if tr == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	data, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
