package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one evaluation share Eval;
// Parent is the index of the enclosing span (-1 for a pass root).
type span struct {
	Name    string `json:"name"`
	Eval    string `json:"eval"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes and Mallocs are Go heap deltas across the span, recorded on
	// the serial workloads only (other goroutines would pollute them).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`

	alloc0, mallocs0 uint64
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	epoch time.Time
	mem   bool // record heap deltas per span
	spans []*span
}

func newTracer(mem bool) *tracer { return &tracer{epoch: time.Now(), mem: mem} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, eval string, parent int) int {
	if t == nil {
		return -1
	}
	s := &span{Name: name, Eval: eval, Parent: parent}
	if t.mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.alloc0, s.mallocs0 = m.TotalAlloc, m.Mallocs
	}
	s.StartNS = time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	s := t.spans[id]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	if t.mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.AllocBytes = m.TotalAlloc - s.alloc0
		s.Mallocs = m.Mallocs - s.mallocs0
	}
}

// add records an already-measured span (phases reported by the program
// itself, such as core's per-request phase spans).
func (t *tracer) add(name, eval string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	st := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, &span{Name: name, Eval: eval, Parent: parent,
		StartNS: st, EndNS: st + d.Nanoseconds()})
}

// selfTimes sums, per span name over the spans recorded since index from,
// each span's duration minus the part of its interval covered by its
// children (children may overlap when they ran on parallel workers, so the
// covered part is the union of their intervals).
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	kids := make([][]*span, len(t.spans))
	for _, s := range t.spans[from:] {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		out[s.Name] += s.dur() - covered(kids[i], s.StartNS, s.EndNS)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi].
func covered(children []*span, lo, hi int64) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.StartNS, lo), min(c.EndNS, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// heap sums the heap deltas per span name.
func (t *tracer) heap() map[string][2]uint64 {
	out := map[string][2]uint64{}
	for _, s := range t.spans {
		h := out[s.Name]
		h[0] += s.AllocBytes
		h[1] += s.Mallocs
		out[s.Name] = h
	}
	return out
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
