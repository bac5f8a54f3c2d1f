package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a call the harness made into a layer.
// Spans of one simulation session share Session; Parent is the ID of the
// enclosing span (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer holds spans in memory until the pass ends. A nil *tracer records
// nothing, so the untraced pass runs the same driver code with tracing
// off. The mutex is for the daemon workload's two client goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, session string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Session: session,
		StartNs: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return s.dur()
}

// named returns the durations of every span called name, in start order.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// coverage is the share of the wall of the root spans called rootName
// that their direct children account for: how much of the traced pass the
// spans explain.
func (t *tracer) coverage(rootName string) float64 {
	var roots, children time.Duration
	isRoot := make(map[int]bool)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == rootName {
			isRoot[s.ID] = true
			roots += s.dur()
		} else if isRoot[s.Parent] {
			children += s.dur()
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(children) / float64(roots)
}

// writeFile dumps the spans as JSONL.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
