package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}, {10, 1.4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
}

func TestBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := beyond(xs, 95); got != 10 {
		t.Errorf("beyond(p95) over 200 samples = %d, want 10", got)
	}
	if got := beyond([]float64{1, 1, 1}, 50); got != 0 {
		t.Errorf("ties are not beyond: %d", got)
	}
}

func TestToleranceHelpers(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"inside", inRange(0.5, 0, 1, 0), true},
		{"lower edge", inRange(0, 0, 1, 0), true},
		{"below by less than slack", inRange(-1e-13, 0, 1, 1e-12), true},
		{"below by more than slack", inRange(-2e-12, 0, 1, 1e-12), false},
		{"above by more than slack", inRange(1+2e-12, 0, 1, 1e-12), false},
		{"NaN never in range", inRange(nan, 0, 1, 1), false},
		{"agree within sum", agrees(1, 1+1.5e-6, 1e-6, 1e-6), true},
		{"agree at exact sum", agrees(0.5, 0.75, 0.125, 0.125), true},
		{"disagree beyond sum", agrees(1, 1+3e-6, 1e-6, 1e-6), false},
		{"NaN never agrees", agrees(nan, 1, 1, 1), false},
		{"same bits", sameBits(0.1+0.2, 0.1+0.2), true},
		{"one ulp apart", sameBits(1, math.Nextafter(1, 2)), false},
		{"signed zeros differ", sameBits(0, math.Copysign(0, -1)), false},
		{"NaN equals its own bits", sameBits(nan, nan), true},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestTally(t *testing.T) {
	var a tally
	if a.okFrac() != 1 {
		t.Errorf("empty tally okFrac = %v", a.okFrac())
	}
	for _, ok := range []bool{true, true, false, true} {
		a.record(ok)
	}
	a.record(false)
	if a.attempted != 5 || a.failed != 2 || a.okFrac() != 0.6 {
		t.Errorf("tally = %+v okFrac %v, want 5 attempted, 2 failed, 0.6", a, a.okFrac())
	}
}

func TestRowOutcome(t *testing.T) {
	for _, c := range []struct {
		status   int
		rowErr   string
		degraded bool
		ok       bool
		reason   string
	}{
		{200, "", false, true, ""},
		{200, "context deadline exceeded", false, false, "row_error"},
		{200, "", true, false, "degraded"},
		{429, "", false, false, "shed"},
		{504, "", false, false, "timeout"},
		{400, "", false, false, "http_status"},
		{503, "", false, false, "http_status"},
	} {
		ok, reason := rowOutcome(c.status, c.rowErr, c.degraded)
		if ok != c.ok || reason != c.reason {
			t.Errorf("rowOutcome(%d, %q, %v) = %v %q, want %v %q", c.status, c.rowErr, c.degraded, ok, reason, c.ok, c.reason)
		}
	}
}

func TestGateCountsViolations(t *testing.T) {
	var g gate
	g.value("in", 0.5, 1, 1e-12)
	g.value("out", 1.1, 1, 1e-12)
	g.bounds("enclosed", 0.1, 0.2, 0.3, 1e-12)
	g.bounds("inverted", 0.3, 0.2, 0.1, 1e-12)
	g.reference("close", 1, 1+1e-13, 1e-12, 1e-12)
	g.bitwise("bits", 1, math.Nextafter(1, 2))
	if g.checks != 6 || len(g.violations) != 3 || g.ok() {
		t.Errorf("gate: %d checks, violations %q", g.checks, g.violations)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "bind", Op: 0, Parent: 0, Start: 10, End: 30},
		{Name: "invert", Op: 0, Parent: 0, Start: 30, End: 90},
		{Name: "kernel", Op: 0, Parent: 2, Start: 40, End: 80},
		{Name: "build", Op: -1, Parent: -1, Start: 0, End: 1000}, // set-up: left out
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 20, "bind": 20, "invert": 20, "kernel": 40}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a := &tracer{spans: []span{{Name: "op", Parent: -1}, {Name: "x", Parent: 0}}}
	b := &tracer{spans: []span{{Name: "op", Parent: -1}, {Name: "y", Parent: 0}}}
	m := mergeSpans(a, nil, b)
	if len(m) != 4 || m[1].Parent != 0 || m[2].Parent != -1 || m[3].Parent != 2 {
		t.Errorf("merged = %+v", m)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
}

func TestStreamDigestCoversPrefixOnly(t *testing.T) {
	a, b := newStreamDigest(), newStreamDigest()
	for i := 0; i < countOps+5; i++ {
		a.add(i, "op", i)
		if i < countOps {
			b.add(i, "op", i)
		} else {
			b.add(i, "different", i)
		}
	}
	if a.sum() != b.sum() {
		t.Error("ops past the prefix changed the digest")
	}
	c := newStreamDigest()
	c.add(0, "op", 1)
	if c.sum() == newStreamDigest().sum() {
		t.Error("digest ignores op content")
	}
}
