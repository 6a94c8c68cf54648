package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public entry point.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // operation id; -1 for set-up work
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one client goroutine; a nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (tr *tracer) begin(name string, op, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(tr.t0).Nanoseconds()})
	return len(tr.spans) - 1
}

// end closes the span id.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	tr.spans[id].End = time.Since(tr.t0).Nanoseconds()
}

// mergeSpans concatenates per-goroutine span lists, re-basing parent
// indices.
func mergeSpans(trs ...*tracer) []span {
	var out []span
	for _, tr := range trs {
		if tr == nil {
			continue
		}
		base := len(out)
		for _, s := range tr.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each timed-op span's duration minus the
// part its direct children cover (children of one span never overlap:
// every traced call path is sequential). Spans outside timed ops (op −1:
// set-up and side probes) are left out.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// writeSpans stores the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// printSelfTable writes the per-layer self-time table, largest first.
func printSelfTable(w io.Writer, self map[string]time.Duration, ops int) {
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-24s %12s %10s %7s\n", "layer", "self_ms", "ms/op", "share")
	for _, n := range names {
		d := self[n]
		fmt.Fprintf(w, "%-24s %12.1f %10.3f %6.1f%%\n", n, ms(d), ms(d)/float64(max(ops, 1)), 100*float64(d)/float64(max(total, 1)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
