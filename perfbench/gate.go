package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"regenrand"
)

// gate collects output-correctness violations. Every answer recorded in the
// timed phase passes through it after the timing stops; any violation makes
// the run incorrect. The tolerances are exactly what the engine certifies:
// an answer is within its ε of the truth, a bound encloses the truth.
type gate struct {
	checks     int
	violations []string
}

func (g *gate) fail(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// value checks that an answer certified within eps lies in [0, rmax] up to
// that eps (the truth lies in [0, rmax] for non-negative rewards).
func (g *gate) value(where string, v, rmax, eps float64) {
	g.checks++
	if !inRange(v, 0, rmax, eps) {
		g.fail("%s: value %v outside [0, %v] beyond ε=%v", where, v, rmax, eps)
	}
}

// bounds checks a certified enclosure against an answer of the same
// request: lower ≤ upper, and the answer (within eps of the enclosed truth)
// lies in [lower−eps, upper+eps].
func (g *gate) bounds(where string, lo, v, hi, eps float64) {
	g.checks++
	if !(lo <= hi) || !inRange(v, lo, hi, eps) {
		g.fail("%s: value %v not enclosed by [%v, %v] (ε=%v)", where, v, lo, hi, eps)
	}
}

// reference checks an answer against an independent solver's, each
// certified within its own ε.
func (g *gate) reference(where string, v, ref, eps, refEps float64) {
	g.checks++
	if !agrees(v, ref, eps, refEps) {
		g.fail("%s: value %v vs reference %v differ by %.3g > %.3g", where, v, ref, math.Abs(v-ref), eps+refEps)
	}
}

// bitwise checks that a served answer equals the in-process answer of the
// identical request bit for bit.
func (g *gate) bitwise(where string, served, local float64) {
	g.checks++
	if !sameBits(served, local) {
		g.fail("%s: served %v != in-process %v", where, served, local)
	}
}

// ok reports whether no violation was found.
func (g *gate) ok() bool { return len(g.violations) == 0 }

// report prints the check count and the first violations.
func (g *gate) report(w io.Writer) {
	fmt.Fprintf(w, "gate: %d checks, %d violations\n", g.checks, len(g.violations))
	for i, v := range g.violations {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(g.violations)-10)
			break
		}
		fmt.Fprintf(w, "  %s\n", v)
	}
}

// refHorizon is the largest time SR answers as a reference; beyond it the
// Poisson window grows too long and RSD takes over on irreducible models.
const refHorizon = 100

// independentRefs answers q's time points with solvers that share no
// Laplace code with RRL: SR for t ≤ refHorizon and, on irreducible models,
// RSD beyond. Time points without a reference get NaN. Every reference is
// certified within cm's ε.
func independentRefs(ctx context.Context, cm *regenrand.CompiledModel, q regenrand.Query, irreducible bool) ([]float64, error) {
	out := make([]float64, len(q.Times))
	for k := range out {
		out[k] = math.NaN()
	}
	for _, method := range []regenrand.Method{regenrand.MethodSR, regenrand.MethodRSD} {
		if method == regenrand.MethodRSD && !irreducible {
			continue
		}
		var ts []float64
		var idx []int
		for k, t := range q.Times {
			if (method == regenrand.MethodSR) == (t <= refHorizon) {
				ts = append(ts, t)
				idx = append(idx, k)
			}
		}
		if len(ts) == 0 {
			continue
		}
		rq := regenrand.Query{Method: method, Measure: q.Measure, Rewards: q.Rewards, Times: ts}
		ref, err := cm.QueryCtx(ctx, rq)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", method, err)
		}
		for n, k := range idx {
			out[k] = ref[n].Value
		}
	}
	return out, nil
}
