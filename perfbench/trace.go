package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded by
// the benchmark's own code around that call. Spans of one client
// operation share op; parent is the index of the enclosing span, -1 for
// a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// timed runs f inside a span (or bare, on a nil tracer).
func (t *tracer) timed(name string, parent int, op int64, f func()) {
	i := t.start(name, parent, op)
	f()
	t.end(i)
}

// layerStat is the per-name aggregate of finished spans.
type layerStat struct {
	count int
	total float64 // seconds
}

func (s layerStat) mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.total / float64(s.count)
}

// stats aggregates finished spans by name.
func (t *tracer) stats() map[string]layerStat {
	out := map[string]layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		st := out[s.Name]
		st.count++
		st.total += float64(s.End-s.Start) / 1e9
		out[s.Name] = st
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
