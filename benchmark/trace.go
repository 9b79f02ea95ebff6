package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program: name, start, end, the span that caused it and
// the batch it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Batch  int    `json:"batch"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: begin and end (and only they) are no-ops on it, so
// the drivers are the same code in both runs.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// noSpan is the parent of a root span and the id a nil tracer hands out.
const noSpan = -1

func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// perBatch sums, per batch id, the duration in milliseconds of every
// span called name. With self set, the part of each span its direct
// children cover is taken out first (self time).
func (t *tracer) perBatch(name string, self bool) map[int]float64 {
	out := map[int]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	var childNs map[int]int64
	if self {
		childNs = map[int]int64{}
		for _, s := range t.spans {
			if s.Parent != noSpan {
				childNs[s.Parent] += s.End - s.Start
			}
		}
	}
	for i, s := range t.spans {
		if s.Name == name {
			out[s.Batch] += float64(s.End-s.Start-childNs[i]) / 1e6
		}
	}
	return out
}

// childSum sums, per batch, the duration in milliseconds of the direct
// children of every span called parent.
func (t *tracer) childSum(parent string) map[int]float64 {
	out := map[int]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent != noSpan && t.spans[s.Parent].Name == parent {
			out[s.Batch] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// count is the number of spans called name per batch.
func (t *tracer) count(name string) map[int]float64 {
	out := map[int]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Batch]++
		}
	}
	return out
}

// each lists the duration in milliseconds of every span called name.
func (t *tracer) each(name string) []float64 {
	var out []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
