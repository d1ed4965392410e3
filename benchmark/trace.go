package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one ladder pass (or one request of the
// traced workload run) share an ancestor through Parent.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run skips the work.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// finish closes the span and attaches the counts taken at its boundary.
func (t *tracer) finish(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Counts = counts
	t.mu.Unlock()
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
