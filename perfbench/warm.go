package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"regenrand"
	"regenrand/internal/core"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/sparse"
)

// warm_rrl: steady-state RRL queries on already-compiled, prewarmed paper
// models. Every op draws fresh time points, so it pays the transform sweep
// and the inversion but never steps a chain.

const (
	warmHorizon = 1e4 // chains are prewarmed to this horizon in set-up
	warmTimes   = 8   // time points per query, log-uniform in [1, warmHorizon]
)

// warmQuery is a query template: measure, reward vector index, backend.
type warmQuery struct {
	measure  regenrand.MeasureKind
	reward   int // index into warmModel.rewards
	inverter string
}

// warmModel is one compiled library model with its query templates.
type warmModel struct {
	name        string
	model       *regenrand.CTMC
	cm          *regenrand.CompiledModel
	eps         float64
	irreducible bool
	rewards     [][]float64 // [0] UA or UR indicator, [1] throughput
	values      []warmQuery // one QueryBatchCtx
	bounds      warmQuery   // one QueryBoundsBatchCtx; repeats values[pair]
	pair        int

	// Traced runs answer through the layers directly, on bindings of a
	// basis of the benchmark's own.
	binds []*regen.Binding
}

type warmLib struct{ models []*warmModel }

// newWarmLib compiles the three library models at the paper's G=20: UA
// (irreducible) and UR (absorbing) at ε=1e-12, and UA at ε=1e-6, which
// serves both Durbin and the Euler override. Chains are prewarmed to the
// maximum horizon and every reward binding is primed, so timed ops never
// step.
func newWarmLib(ctx context.Context) (*warmLib, error) {
	ua, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		return nil, err
	}
	ur, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), true)
	if err != nil {
		return nil, err
	}
	lib := &warmLib{models: []*warmModel{
		{name: "UA@1e-12", model: ua.Chain, eps: 1e-12, irreducible: true,
			rewards: [][]float64{ua.UnavailabilityRewards(), ua.ThroughputRewards()},
			values:  []warmQuery{{regenrand.MeasureTRR, 0, ""}, {regenrand.MeasureMRR, 0, ""}, {regenrand.MeasureTRR, 1, ""}},
			bounds:  warmQuery{regenrand.MeasureTRR, 0, ""}, pair: 0},
		{name: "UR@1e-12", model: ur.Chain, eps: 1e-12,
			rewards: [][]float64{ur.UnreliabilityRewards(), ur.ThroughputRewards()},
			values:  []warmQuery{{regenrand.MeasureTRR, 0, ""}, {regenrand.MeasureMRR, 0, ""}, {regenrand.MeasureTRR, 1, ""}},
			bounds:  warmQuery{regenrand.MeasureTRR, 0, ""}, pair: 0},
		{name: "UA@1e-6", model: ua.Chain, eps: 1e-6, irreducible: true,
			rewards: [][]float64{ua.UnavailabilityRewards(), ua.ThroughputRewards()},
			values: []warmQuery{{regenrand.MeasureTRR, 0, regenrand.DurbinInverter}, {regenrand.MeasureMRR, 1, regenrand.EulerInverter},
				{regenrand.MeasureTRR, 0, regenrand.EulerInverter}},
			bounds: warmQuery{regenrand.MeasureTRR, 0, regenrand.EulerInverter}, pair: 2},
	}}
	for _, m := range lib.models {
		opts := regenrand.DefaultOptions()
		opts.Epsilon = m.eps
		m.cm, err = regenrand.CompileCtx(ctx, m.model, regenrand.CompileOptions{Options: opts, PrebuildHorizon: warmHorizon})
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", m.name, err)
		}
		vals, bq := m.queries([]float64{warmHorizon})
		for _, r := range m.cm.QueryBatchCtx(ctx, vals) {
			if r.Err != nil {
				return nil, fmt.Errorf("priming %s: %w", m.name, r.Err)
			}
		}
		if r := m.cm.QueryBoundsBatchCtx(ctx, []regenrand.Query{bq}); r[0].Err != nil {
			return nil, fmt.Errorf("priming %s bounds: %w", m.name, r[0].Err)
		}
	}
	return lib, nil
}

// addLayers builds the benchmark's own basis and bindings for traced runs,
// prewarmed and primed like the compiled models.
func (lib *warmLib) addLayers(ctx context.Context, tr *tracer) error {
	for _, m := range lib.models {
		opts := regenrand.DefaultOptions()
		opts.Epsilon = m.eps
		sp := tr.begin("regen.build", -1, -1)
		b, err := regen.NewBasisMode(m.model, 0, opts, regen.RetainFull)
		if err == nil {
			err = b.Prewarm(ctx, warmHorizon)
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("basis %s: %w", m.name, err)
		}
		m.binds = nil
		for _, r := range m.rewards {
			sp := tr.begin("regen.bind", -1, -1)
			bd, err := b.Bind(r)
			if err == nil {
				_, err = bd.SeriesForCtx(ctx, warmHorizon)
			}
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("binding %s: %w", m.name, err)
			}
			m.binds = append(m.binds, bd)
		}
	}
	return nil
}

func (m *warmModel) query(q warmQuery, ts []float64) regenrand.Query {
	return regenrand.Query{Method: regenrand.MethodRRL, Measure: q.measure, Rewards: m.rewards[q.reward], Times: ts, Inverter: q.inverter}
}

// queries instantiates the op's value batch and bounds query at ts.
func (m *warmModel) queries(ts []float64) ([]regenrand.Query, regenrand.Query) {
	vals := make([]regenrand.Query, len(m.values))
	for i, q := range m.values {
		vals[i] = m.query(q, ts)
	}
	return vals, m.query(m.bounds, ts)
}

// warmAnswer records one op's answers for the gate.
type warmAnswer struct {
	op     int
	model  *warmModel
	ts     []float64
	values [][]core.Result
	bounds []core.Bounds
}

// publicOp runs op i through the public API (one values batch plus one bounds
// batch) and returns its answers and latency; ok is false when a row failed.
func (lib *warmLib) publicOp(ctx context.Context, i int, ts []float64) (warmAnswer, time.Duration, bool) {
	m := lib.models[i%len(lib.models)]
	vals, bq := m.queries(ts)
	t0 := time.Now()
	vr := m.cm.QueryBatchCtx(ctx, vals)
	br := m.cm.QueryBoundsBatchCtx(ctx, []regenrand.Query{bq})
	lat := time.Since(t0)
	a := warmAnswer{op: i, model: m, ts: ts, values: make([][]core.Result, len(vr))}
	ok := br[0].Err == nil
	for j, r := range vr {
		ok = ok && r.Err == nil
		a.values[j] = r.Results
	}
	a.bounds = br[0].Bounds
	return a, lat, ok
}

// tracedOp answers the same op layer by layer: the binding's series
// resolve (regen.bind) and the transform evaluator plus inversion
// (rrl.invert), each in its own span under the op span. inv is the time
// spent inverting the value rows, whose abscissae the results count.
func (lib *warmLib) tracedOp(ctx context.Context, tr *tracer, i int, ts []float64) (a warmAnswer, lat, inv time.Duration, ok bool) {
	m := lib.models[i%len(lib.models)]
	a = warmAnswer{op: i, model: m, ts: ts, values: make([][]core.Result, len(m.values))}
	t0 := time.Now()
	root := tr.begin("op", i, -1)
	ok = true
	for j, q := range m.values {
		ev, err := m.evaluator(ctx, tr, root, i, q, maxOf(ts))
		if err == nil {
			sp := tr.begin("rrl.invert", i, root)
			ti := time.Now()
			if q.measure == regenrand.MeasureMRR {
				a.values[j], err = ev.MRRCtx(ctx, ts)
			} else {
				a.values[j], err = ev.TRRCtx(ctx, ts)
			}
			inv += time.Since(ti)
			tr.end(sp)
		}
		ok = ok && err == nil
	}
	ev, err := m.evaluator(ctx, tr, root, i, m.bounds, maxOf(ts))
	if err == nil {
		sp := tr.begin("rrl.invert", i, root)
		if m.bounds.measure == regenrand.MeasureMRR {
			a.bounds, err = ev.MRRBoundsCtx(ctx, ts)
		} else {
			a.bounds, err = ev.TRRBoundsCtx(ctx, ts)
		}
		tr.end(sp)
	}
	ok = ok && err == nil
	tr.end(root)
	return a, time.Since(t0), inv, ok
}

// evaluator resolves the series of one query template at horizon h and
// packs its transform evaluator.
func (m *warmModel) evaluator(ctx context.Context, tr *tracer, root, i int, q warmQuery, h float64) (*rrl.Evaluator, error) {
	sp := tr.begin("regen.bind", i, root)
	s, err := m.binds[q.reward].SeriesForCtx(ctx, h)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("rrl.invert", i, root)
	defer tr.end(sp)
	r := m.rewards[q.reward]
	rho0 := func() float64 { return sparse.Dot(m.model.Initial(), r) }
	return rrl.NewEvaluator(s, rho0, m.eps, rrl.Config{Inverter: q.inverter}.Normalize())
}

// planGain times one op's value batch through QueryBatchCtx and as
// separate QueryCtx calls, alternating which goes first so the series the
// first leaves cached favours each side equally often.
func (lib *warmLib) planGain(ctx context.Context, tr *tracer, i int, ts []float64) (batch, single time.Duration) {
	m := lib.models[i%len(lib.models)]
	vals, _ := m.queries(ts)
	runBatch := func() {
		sp := tr.begin("regenrand.query_batch", -1, -1)
		t0 := time.Now()
		m.cm.QueryBatchCtx(ctx, vals)
		batch = time.Since(t0)
		tr.end(sp)
	}
	runSingle := func() {
		sp := tr.begin("regenrand.query", -1, -1)
		t0 := time.Now()
		for _, q := range vals {
			_, _ = m.cm.QueryCtx(ctx, q) // answers are checked on the op path
		}
		single = time.Since(t0)
		tr.end(sp)
	}
	if i%2 == 0 {
		runBatch()
		runSingle()
	} else {
		runSingle()
		runBatch()
	}
	return batch, single
}

func runWarm(ctx context.Context, cfg config) (*report, error) {
	rep := &report{layers: newLayers()}
	var lib *warmLib
	for k := 0; k < setupReps; k++ {
		lib = nil // let the previous repetition's models go before timing the next
		runtime.GC()
		t0 := time.Now()
		l, err := newWarmLib(ctx)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, since(t0))
		lib = l
	}
	phase := seconds(cfg.seconds)
	if cfg.trace {
		phase /= 2
	}
	perOp := (len(lib.models[0].values) + 1) * warmTimes
	var answers []warmAnswer
	before := regenrand.ReadEngineStats()

	gen, dig := rngFor(cfg.seed, 1), newStreamDigest()
	start := time.Now()
	if _, err := closedLoop(start.Add(phase), countOps, func(i int) error {
		ts := logTimes(gen, warmTimes, 1, warmHorizon)
		dig.add(i, i%len(lib.models), ts)
		a, lat, ok := lib.publicOp(ctx, i, ts)
		rep.lat = append(rep.lat, ms(lat))
		rep.kind = append(rep.kind, a.model.name)
		rep.ops.record(ok)
		if ok {
			rep.answers += perOp
		}
		answers = append(answers, a)
		return nil
	}); err != nil {
		return nil, err
	}
	rep.wall = time.Since(start)
	rep.hash = dig.sum()

	var traced []warmAnswer
	if cfg.trace {
		tr := newTracer(time.Now())
		if err := lib.addLayers(ctx, tr); err != nil {
			return nil, err
		}
		tgen, tdig := rngFor(cfg.seed, 2), newStreamDigest()
		var batch, single, valInvert time.Duration
		valAbs, prefixAbs, prefixAns := 0, 0, 0
		n, err := closedLoop(time.Now().Add(phase), countOps, func(i int) error {
			ts := logTimes(tgen, warmTimes, 1, warmHorizon)
			tdig.add(i, i%len(lib.models), ts)
			a, lat, inv, ok := lib.tracedOp(ctx, tr, i, ts)
			rep.traceLat = append(rep.traceLat, ms(lat))
			rep.ops.record(ok)
			traced = append(traced, a)
			valInvert += inv
			for _, rows := range a.values {
				for _, r := range rows {
					valAbs += r.Abscissae
					if i < countOps {
						prefixAbs += r.Abscissae
						prefixAns++
					}
				}
			}
			b, s := lib.planGain(ctx, tr, i, ts)
			batch += b
			single += s
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep.hash += " traced:" + tdig.sum()
		rep.spans = tr.spans
		self := selfTimes(tr.spans)
		rep.layers["rrl.invert_ms"] = layerMS(self, "rrl.invert", n)
		rep.layers["regen.bind_ms"] = layerMS(self, "regen.bind", n)
		rep.layers["rrl.abscissae_per_answer"] = float64(prefixAbs) / float64(max(prefixAns, 1))
		rep.layers["rrl.ns_per_abscissa"] = float64(valInvert.Nanoseconds()) / float64(max(valAbs, 1))
		rep.layers["regenrand.plan_gain"] = float64(single) / float64(max(batch, 1))
	}
	engineLayers(rep.layers, before, regenrand.ReadEngineStats(), len(rep.lat)+len(rep.traceLat))
	for _, m := range lib.models {
		rep.retained += m.cm.RetainedBytes()
	}

	gateRNG := rngFor(cfg.seed, 3)
	if err := lib.check(ctx, &rep.g, answers, gateRNG); err != nil {
		return nil, err
	}
	if err := lib.check(ctx, &rep.g, traced, gateRNG); err != nil {
		return nil, err
	}
	return rep, nil
}

// check runs the output gate over recorded answers: every value in range,
// every bounds row enclosing its paired value, and on a seeded sample of
// the first countOps ops an independent reference (see independentRefs;
// the UR model is absorbing, so it gets SR only) plus Durbin@1e-12 for
// Euler@1e-6 answers.
func (lib *warmLib) check(ctx context.Context, g *gate, answers []warmAnswer, rng *rand.Rand) error {
	for _, a := range answers {
		m := a.model
		for j, rows := range a.values {
			rmax := maxOf(m.rewards[m.values[j].reward])
			for _, r := range rows {
				g.value(fmt.Sprintf("op %d %s q%d t=%v", a.op, m.name, j, r.T), r.Value, rmax, m.eps)
			}
		}
		if pv := a.values[m.pair]; len(pv) == len(a.bounds) {
			for k, b := range a.bounds {
				g.bounds(fmt.Sprintf("op %d %s bounds t=%v", a.op, m.name, b.T), b.Lower, pv[k].Value, b.Upper, m.eps)
			}
		} else if len(pv) > 0 {
			g.fail("op %d %s: %d bounds rows for %d values", a.op, m.name, len(a.bounds), len(pv))
		}
	}
	for _, k := range rng.Perm(countOps)[:12] {
		if k >= len(answers) {
			continue
		}
		a := answers[k]
		m := a.model
		j := rng.Intn(len(m.values))
		q := m.values[j]
		if len(a.values[j]) != len(a.ts) {
			continue // a failed row; counted by the op tally
		}
		where := fmt.Sprintf("op %d %s q%d", a.op, m.name, j)
		if q.inverter == regenrand.EulerInverter {
			durbin := lib.models[0]
			ref, err := durbin.cm.QueryCtx(ctx, durbin.query(warmQuery{q.measure, q.reward, ""}, a.ts))
			if err != nil {
				return fmt.Errorf("durbin reference: %w", err)
			}
			for k, r := range ref {
				g.reference(where+fmt.Sprintf(" euler vs durbin t=%v", r.T), a.values[j][k].Value, r.Value, m.eps, durbin.eps)
			}
		}
		refs, err := independentRefs(ctx, m.cm, m.query(q, a.ts), m.irreducible)
		if err != nil {
			return err
		}
		for k, ref := range refs {
			if math.IsNaN(ref) {
				continue
			}
			at := fmt.Sprintf("%s t=%v", where, a.ts[k])
			g.reference(at, a.values[j][k].Value, ref, m.eps, m.eps)
			if j == m.pair && len(a.bounds) == len(a.ts) {
				g.bounds(at+" bounds", a.bounds[k].Lower, ref, a.bounds[k].Upper, m.eps)
			}
		}
	}
	return nil
}
