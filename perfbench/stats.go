package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolating
// linearly between the closest ranks. xs is not modified; an empty sample
// gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// beyond counts the samples strictly greater than the p-th percentile: the
// support of a tail percentile, which the benchmark wants to be at least
// ten.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// inRange reports whether v lies in [lo−slack, hi+slack]. A certified answer
// is within its ε of a truth in [lo, hi], so slack is that ε. NaN is never in
// range.
func inRange(v, lo, hi, slack float64) bool {
	return v >= lo-slack && v <= hi+slack
}

// agrees reports whether two answers certified within epsA and epsB of the
// same truth are consistent: |a − b| ≤ epsA + epsB. NaN never agrees.
func agrees(a, b, epsA, epsB float64) bool {
	return math.Abs(a-b) <= epsA+epsB
}

// sameBits reports bitwise equality of two float64 answers.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// tally counts operations attempted and failed.
type tally struct {
	attempted, failed int
}

// record counts one operation; ok is false when any of its rows failed.
func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// okFrac is the share of attempted operations that succeeded (1 when none
// were attempted; a run without ops reports an error instead).
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// rowOutcome classifies one HTTP query row: it succeeds only with an HTTP
// 200, no row error and no degraded (looser-ε) answer. Shed (429), timed-out
// (504) and every other non-200 status count as failed.
func rowOutcome(status int, rowErr string, degraded bool) (ok bool, reason string) {
	switch {
	case status == 429:
		return false, "shed"
	case status == 504:
		return false, "timeout"
	case status != 200:
		return false, "http_status"
	case rowErr != "":
		return false, "row_error"
	case degraded:
		return false, "degraded"
	}
	return true, ""
}
