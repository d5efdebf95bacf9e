package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Spans of one benchmark operation share Op; Parent links a child call to
// the call that caused it (0 = top level).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so the plain run pays one nil check per call.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new benchmark operation; spans begun after it share its ID.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// around records fn as one span.
func (t *tracer) around(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// ms returns the durations of every closed span called name, in ms.
func (t *tracer) ms(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON, with each span's self time (its duration
// minus the part its direct children cover).
func (t *tracer) write(path string) error {
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := make([]out, 0, len(t.spans))
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if s.End == 0 {
			self = 0
		}
		rows = append(rows, out{span: s, SelfNS: self})
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// pct returns the p-th percentile (nearest rank) of xs, 0 when empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
