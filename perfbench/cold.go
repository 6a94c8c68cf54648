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
	"regenrand/internal/ctmc"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/sparse"
)

// cold_compile: every op compiles a model nobody compiled before and asks
// one RRL TRR query on it, so it pays uniformization and the full
// regenerative stepping. Ops alternate between a G=20 RAID model with
// seeded rate jitter (new content key, same structure) and a seeded
// 10⁴-state random band model.

const (
	coldTimes  = 4     // time points of the op's query
	bandStates = 10000 // states of the cold band models
)

// Each kind's query times are log-uniform in a narrow window, so op costs
// stay comparable across seeds; the windows give both kinds about the same
// op latency, so the median does not sit at the edge between two cost
// clusters.
var (
	raidWindow = [2]float64{12, 18}
	bandWindow = [2]float64{55, 80}
)

// coldSpec is one op's generated input.
type coldSpec struct {
	i       int
	model   *regenrand.CTMC
	rewards []float64
	ts      []float64
}

// newColdSpec generates op i: even ops a jittered RAID model, odd ops a
// band model, each regenerated from rng.
func newColdSpec(rng *rand.Rand, i int, dig *streamDigest) (coldSpec, error) {
	s := coldSpec{i: i}
	if i%2 == 0 {
		p := regenrand.DefaultRAIDParams(20)
		for _, r := range []*float64{&p.LambdaD, &p.LambdaS, &p.LambdaC, &p.MuDRC, &p.MuDRP, &p.MuCRP, &p.MuSR, &p.MuG} {
			*r *= math.Exp(0.02 * (rng.Float64() - 0.5))
		}
		m, err := regenrand.BuildRAID(p, false)
		if err != nil {
			return s, err
		}
		s.model, s.rewards = m.Chain, m.UnavailabilityRewards()
		s.ts = logTimes(rng, coldTimes, raidWindow[0], raidWindow[1])
		dig.add(i, "raid", p, s.ts)
		return s, nil
	}
	seed := rng.Int63()
	mrng := rand.New(rand.NewSource(seed))
	c, err := ctmc.RandomBand(mrng, ctmc.BandOptions{States: bandStates})
	if err != nil {
		return s, err
	}
	s.model, s.rewards = c, unitRewards(mrng, c.N())
	s.ts = logTimes(rng, coldTimes, bandWindow[0], bandWindow[1])
	dig.add(i, "band", seed, s.ts)
	return s, nil
}

func (s coldSpec) kind() string {
	if s.i%2 == 0 {
		return "raid"
	}
	return "band"
}

func (s coldSpec) query() regenrand.Query {
	return regenrand.Query{Method: regenrand.MethodRRL, Measure: regenrand.MeasureTRR, Rewards: s.rewards, Times: s.ts}
}

// publicOp compiles and queries through the public API.
func (s coldSpec) publicOp(ctx context.Context) (res []core.Result, lat time.Duration, retained int64, err error) {
	t0 := time.Now()
	cm, err := regenrand.CompileCtx(ctx, s.model, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
	if err == nil {
		res, err = cm.QueryCtx(ctx, s.query())
	}
	lat = time.Since(t0)
	if err != nil {
		return nil, lat, 0, err
	}
	return res, lat, cm.RetainedBytes(), nil
}

// tracedOp compiles through the public API (regenrand.compile) and answers
// the query layer by layer on a basis of its own: stepping to the horizon
// (regen.build), the reward binding's series (regen.bind) and the
// inversion (rrl.invert).
func (s coldSpec) tracedOp(ctx context.Context, tr *tracer) (res []core.Result, lat time.Duration, steps int, build, inv time.Duration, err error) {
	opts := regenrand.DefaultOptions()
	h := maxOf(s.ts)
	t0 := time.Now()
	root := tr.begin("op", s.i, -1)
	defer func() {
		tr.end(root)
		lat = time.Since(t0)
	}()
	sp := tr.begin("regenrand.compile", s.i, root)
	_, err = regenrand.CompileCtx(ctx, s.model, regenrand.CompileOptions{Options: opts})
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.begin("regen.build", s.i, root)
	tb := time.Now()
	b, err := regen.NewBasisMode(s.model, 0, opts, regen.RetainFull)
	if err == nil {
		err = b.Prewarm(ctx, h)
	}
	build = time.Since(tb)
	tr.end(sp)
	if err != nil {
		return
	}
	steps = b.Steps()
	sp = tr.begin("regen.bind", s.i, root)
	bd, err := b.Bind(s.rewards)
	var series *regen.Series
	if err == nil {
		series, err = bd.SeriesForCtx(ctx, h)
	}
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.begin("rrl.invert", s.i, root)
	defer tr.end(sp)
	rho0 := func() float64 { return sparse.Dot(s.model.Initial(), s.rewards) }
	ev, err := rrl.NewEvaluator(series, rho0, opts.Epsilon, rrl.Config{}.Normalize())
	if err != nil {
		return
	}
	ti := time.Now()
	res, err = ev.TRRCtx(ctx, s.ts)
	inv = time.Since(ti)
	return
}

// coldSample keeps a sampled op's input and answers for the SR reference.
type coldSample struct {
	spec coldSpec
	res  []core.Result
}

func runCold(ctx context.Context, cfg config) (*report, error) {
	rep := &report{layers: newLayers()}
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		t0 := time.Now()
		if err := coldWarmup(ctx, rngFor(cfg.seed, 4)); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, since(t0))
	}
	phase := seconds(cfg.seconds)
	if cfg.trace {
		phase /= 2
	}
	sampleRNG := rngFor(cfg.seed, 3)
	sampled := map[int]bool{}
	for _, k := range sampleRNG.Perm(countOps)[:8] {
		sampled[k] = true
	}
	var samples []coldSample
	var retained []float64
	before := regenrand.ReadEngineStats()

	gen, dig := rngFor(cfg.seed, 1), newStreamDigest()
	start := time.Now()
	if _, err := closedLoop(start.Add(phase), countOps, func(i int) error {
		s, err := newColdSpec(gen, i, dig)
		if err != nil {
			return err
		}
		res, lat, rb, err := s.publicOp(ctx)
		rep.lat = append(rep.lat, ms(lat))
		rep.kind = append(rep.kind, s.kind())
		rep.ops.record(err == nil)
		if err != nil {
			return nil
		}
		rep.answers += len(res)
		retained = append(retained, float64(rb))
		checkCold(&rep.g, s, res)
		if sampled[i] {
			samples = append(samples, coldSample{s, res})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.wall = time.Since(start)
	rep.hash = dig.sum()
	// The mean, not the median: the two model kinds retain different
	// amounts, and a median would sit between the two.
	var sum float64
	for _, b := range retained {
		sum += b
	}
	rep.retained = int64(sum / float64(max(len(retained), 1)))

	if cfg.trace {
		tr := newTracer(time.Now())
		tgen, tdig := rngFor(cfg.seed, 2), newStreamDigest()
		var build, inv time.Duration
		prefixSteps, allSteps, prefixAbs, prefixAns, allAbs := 0, 0, 0, 0, 0
		n, err := closedLoop(time.Now().Add(phase), countOps, func(i int) error {
			s, err := newColdSpec(tgen, i, tdig)
			if err != nil {
				return err
			}
			res, lat, steps, b, vi, err := s.tracedOp(ctx, tr)
			rep.traceLat = append(rep.traceLat, ms(lat))
			rep.ops.record(err == nil)
			if err != nil {
				return nil
			}
			checkCold(&rep.g, s, res)
			build += b
			inv += vi
			allSteps += steps
			for _, r := range res {
				allAbs += r.Abscissae
			}
			if i < countOps {
				prefixSteps += steps
				for _, r := range res {
					prefixAbs += r.Abscissae
					prefixAns++
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep.hash += " traced:" + tdig.sum()
		rep.spans = tr.spans
		self := selfTimes(tr.spans)
		rep.layers["regenrand.compile_ms"] = layerMS(self, "regenrand.compile", n)
		rep.layers["regen.build_ms"] = layerMS(self, "regen.build", n)
		rep.layers["regen.bind_ms"] = layerMS(self, "regen.bind", n)
		rep.layers["rrl.invert_ms"] = layerMS(self, "rrl.invert", n)
		rep.layers["sparse.steps_per_op"] = float64(prefixSteps) / countOps
		rep.layers["sparse.step_us"] = float64(build.Microseconds()) / float64(max(allSteps, 1))
		rep.layers["rrl.abscissae_per_answer"] = float64(prefixAbs) / float64(max(prefixAns, 1))
		rep.layers["rrl.ns_per_abscissa"] = float64(inv.Nanoseconds()) / float64(max(allAbs, 1))
	}
	engineLayers(rep.layers, before, regenrand.ReadEngineStats(), len(rep.lat)+len(rep.traceLat))

	for _, s := range samples {
		if err := coldReference(ctx, &rep.g, s); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkCold range-checks one cold op's answers.
func checkCold(g *gate, s coldSpec, res []core.Result) {
	eps := regenrand.DefaultOptions().Epsilon
	if len(res) != len(s.ts) {
		g.fail("cold op %d: %d answers for %d times", s.i, len(res), len(s.ts))
	}
	for _, r := range res {
		g.value(fmt.Sprintf("cold op %d t=%v", s.i, r.T), r.Value, 1, eps)
	}
}

// coldReference compares a sampled op's answers with SR on a compile
// without regenerative structure (every cold time point is ≤ refHorizon).
func coldReference(ctx context.Context, g *gate, s coldSample) error {
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.CompileCtx(ctx, s.spec.model, regenrand.CompileOptions{Options: opts, RegenState: regenrand.NoRegen})
	if err != nil {
		return fmt.Errorf("SR reference compile: %w", err)
	}
	refs, err := independentRefs(ctx, cm, s.spec.query(), false)
	if err != nil {
		return err
	}
	for k, ref := range refs {
		if math.IsNaN(ref) {
			g.fail("cold op %d: no reference for t=%v", s.spec.i, s.spec.ts[k])
			continue
		}
		g.reference(fmt.Sprintf("cold op %d SR t=%v", s.spec.i, s.spec.ts[k]), s.res[k].Value, ref, opts.Epsilon, opts.Epsilon)
	}
	return nil
}

// coldWarmup is the cold workload's set-up: generate and run one op of
// each kind, so the timed phase starts with the engine's pools and the
// process heap in steady state.
func coldWarmup(ctx context.Context, rng *rand.Rand) error {
	for i := 0; i < 2; i++ {
		s, err := newColdSpec(rng, i, newStreamDigest())
		if err != nil {
			return err
		}
		if _, _, _, err := s.publicOp(ctx); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}
