package regen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/sparse"
)

// Basis is the reward-independent regenerative-randomization artifact of one
// (model, regenerative state, options) triple — the expensive part of the
// method that the compile phase performs once and every query reuses — and
// the owner of the one series engine every construction runs on.
//
// It owns the shared uniformized DTMC and, in retaining mode, the
// reward-free chain statistics a(k), q_k, v^i_k together with every stepped
// vector u_k (primed counterparts when α_r < 1). Binding a reward vector is
// then a replay of chunk-deterministic reward dots over the retained
// vectors (RewardDotFusedBatch for one full-precision binding,
// RewardDotMulti for grouped or compact ones) instead of a fresh stepping
// pass, and yields a Series bitwise-identical to Build. In non-retaining
// mode the Basis only shares the DTMC and each binding owns a pair of
// reward-carrying incremental chains (O(states) working vectors, O(K)
// scalars) that extend monotonically as horizons grow — the memory-lean
// configuration the wrapper constructors use; a deeper horizon pays only the
// step difference instead of a fresh stepping pass.
//
// A Basis is safe for concurrent use: lazy extension of the chain store is
// serialized by an internal mutex, published prefixes are append-only and
// never mutated, and bindings read immutable snapshots.
type Basis struct {
	model      *ctmc.CTMC
	dtmc       *ctmc.DTMC
	regenState int
	opts       core.Options
	mode       RetainMode

	alphaR    float64
	absorbing []int
	plan      *zeroPlan
	fr        *sparse.Frontier // nil when frontier pruning is disabled

	mu    sync.Mutex
	main  *chainState // recording, reward-free; nil when mode is RetainNone
	prime *chainState // nil when alphaR == 1 or mode is RetainNone

	// retainedBytes accumulates the heap bytes of the retained chain store,
	// updated per recorded step by the chain states. It feeds byte-budget
	// cache eviction, so it must be readable without taking mu (a long
	// extension holds mu for its whole loop).
	retainedBytes atomic.Int64
}

// RetainedBytes returns the approximate heap bytes of the retained chain
// store (stepped vectors plus per-step statistics; 0 in non-retaining
// mode). Safe to call at any time, including while an extension is running.
func (b *Basis) RetainedBytes() int64 { return b.retainedBytes.Load() }

// RetainMode selects what the compile phase keeps of the stepped vectors.
type RetainMode int

const (
	// RetainNone drops stepped vectors; every binding steps reward-carrying
	// incremental chains of its own (memory O(states) plus O(K) scalars),
	// extended monotonically across horizons.
	RetainNone RetainMode = iota
	// RetainFull keeps every stepped vector at working precision; binding
	// replays are bitwise-identical to a fused build (memory O(8·states·K)
	// bytes).
	RetainFull
	// RetainCompact keeps float32 roundings of the stepped vectors, halving
	// retention memory. Binding replays dot the rounded vectors, so bound
	// series are NOT bitwise-identical to a fused build; the quantization
	// error is charged against an explicit slice of the truncation budget
	// (see Binding.truncBudget), keeping every result certified within
	// Epsilon. Requires Epsilon comfortably above 2⁻²³·rmax.
	RetainCompact
)

// NewBasisMode validates the reward-independent inputs, uniformizes the
// model once, and returns a Basis that keeps what mode selects of the
// stepped vectors for later reward binding.
func NewBasisMode(model *ctmc.CTMC, regenState int, opts core.Options, mode RetainMode) (*Basis, error) {
	if err := validateRegenInputs(model, regenState, &opts); err != nil {
		return nil, err
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	b := &Basis{
		model:      model,
		dtmc:       d,
		regenState: regenState,
		opts:       opts,
		mode:       mode,
		alphaR:     model.Initial()[regenState],
		absorbing:  model.Absorbing(),
		plan:       newZeroPlan(model.N(), regenState, model.Absorbing()),
		fr:         frontierFor(model, d, regenState),
	}
	if mode != RetainNone {
		b.main = b.newChain(false, nil, nil, &b.retainedBytes)
		if b.alphaR < 1 {
			b.prime = b.newChain(true, nil, nil, &b.retainedBytes)
		}
	}
	return b, nil
}

// DTMC returns the shared uniformized chain.
func (b *Basis) DTMC() *ctmc.DTMC { return b.dtmc }

// Retains reports whether stepped vectors are kept for reward rebinding.
func (b *Basis) Retains() bool { return b.mode != RetainNone }

// Mode returns the retention mode.
func (b *Basis) Mode() RetainMode { return b.mode }

// RegenState returns the regenerative state index.
func (b *Basis) RegenState() int { return b.regenState }

// Steps returns the number of full-model DTMC steps currently stored (0 in
// non-retaining mode): the amortized construction cost of the compile phase.
func (b *Basis) Steps() int {
	if b.mode == RetainNone {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	steps := len(b.main.a) - 1
	if b.prime != nil {
		steps += len(b.prime.a) - 1
	}
	return steps
}

// newSeries returns the header of a series over this basis for rewards with
// maximum rate rmax and absorbing-state rates rAbs; cut fills in the chains.
func (b *Basis) newSeries(rmax float64, rAbs []float64, horizon float64) *Series {
	return &Series{
		Lambda:           b.dtmc.Lambda,
		Regen:            b.regenState,
		AlphaR:           b.alphaR,
		Absorbing:        b.absorbing,
		RewardsAbsorbing: rAbs,
		RMax:             rmax,
		Eps:              b.opts.Epsilon,
		Horizon:          horizon,
		L:                -1,
	}
}

// absorbingRewards returns the reward rates of the absorbing states.
func (b *Basis) absorbingRewards(rewards []float64) []float64 {
	rAbs := make([]float64, len(b.absorbing))
	for i, f := range b.absorbing {
		rAbs[i] = rewards[f]
	}
	return rAbs
}

// grow steps cs alone until g no longer needs it (or it is exhausted) and
// records the extension. The caller holds the lock guarding cs: b.mu for
// the retained chains, the binding's mu for its incremental ones.
//
// The store is append-only and never rolled back: a cancelled call leaves a
// valid prefix, and a retry resumes from it to bitwise the same chain an
// uninterrupted call would have built.
func (b *Basis) grow(ctx context.Context, cs *chainState, g goal) error {
	base := cs.stepIndex()
	steps, err := advance(ctx, b.dtmc, b.plan, g, cs, nil)
	if err != nil {
		return err
	}
	noteExtension(base, steps)
	return nil
}

// extend grows a retained chain until g holds at its depth and returns an
// immutable snapshot, over which truncation levels are binary-searched with
// the same monotone bound a fresh build uses — hence bitwise-identical ones.
func (b *Basis) extend(ctx context.Context, cs *chainState, g goal) (chainSnapshot, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.grow(ctx, cs, g); err != nil {
		return chainSnapshot{}, err
	}
	return cs.snapshot(), nil
}

// Binding is the reward-dependent layer over a Basis: one rewards vector,
// its b(k) series computed (and cached) from the retained vectors on
// demand. Bindings are cheap views — create one per rewards vector and
// share it across queries; methods are safe for concurrent use.
type Binding struct {
	basis   *Basis
	rewards []float64
	rmax    float64
	rAbs    []float64

	mu     sync.Mutex
	bMain  []float64 // b(k) for k < len(bMain), over the retained main chain
	bPrime []float64

	// Non-retaining incremental store: on a RetainNone basis the binding owns
	// reward-carrying chains of its own (O(states) working vectors plus O(K)
	// scalar statistics) that extend monotonically under mu instead of
	// re-stepping from scratch for every new horizon. nil until the first
	// series request.
	incMain  *chainState
	incPrime *chainState

	// bytes accumulates this binding's own retained heap: cached b(k)
	// coefficients (retaining basis) or the incremental chains' working
	// vectors and per-step statistics (non-retaining). Atomic so byte-budget
	// eviction can read it while a long extension holds mu.
	bytes atomic.Int64
}

// RetainedBytes reports the approximate heap bytes this binding retains
// beyond its basis: cached b(k) coefficient stores and, on a non-retaining
// basis, the binding-owned incremental chains. Safe to call at any time,
// including while an extension is running.
func (bd *Binding) RetainedBytes() int64 { return bd.bytes.Load() }

// Bind validates the rewards vector against the model and returns its
// binding.
func (b *Basis) Bind(rewards []float64) (*Binding, error) {
	rmax, err := core.CheckRewards(rewards, b.model.N())
	if err != nil {
		return nil, err
	}
	r := make([]float64, len(rewards))
	copy(r, rewards)
	return &Binding{basis: b, rewards: r, rmax: rmax, rAbs: b.absorbingRewards(r)}, nil
}

// Rewards returns the bound reward vector (shared; do not modify).
func (bd *Binding) Rewards() []float64 { return bd.rewards }

// RMax returns the maximum bound reward rate.
func (bd *Binding) RMax() float64 { return bd.rmax }

// quantRel bounds the relative measure error introduced by float32
// retention: rounding each retained entry to float32 perturbs it by at most
// 2⁻²⁴ relatively, the retained entries are non-negative with Σⱼ u_k[j] =
// a(k), so every replayed coefficient satisfies |b₃₂(k) − b(k)| ≤
// 2⁻²⁴·rmax, and the transformed chain V_{K,L} — whose states carry the
// b(k) as reward rates with total probability ≤ 1 — moves by at most that
// much for every t. One extra factor of two covers the replay dot's own
// rounding relative to the exact perturbed sum.
const quantRel = 0x1p-23

// truncBudget returns the truncation budget of one chain for this binding:
// the ε/4 (or ε/2 when α_r = 1) of the paper, minus the explicit
// quantization carve-out of compact retention — so truncation + rounding
// together stay inside the slice of ε the series construction owns. It
// errors when Epsilon is too small for float32 retention to certify.
func (bd *Binding) truncBudget() (float64, error) {
	budget := bd.basis.chainBudget()
	if bd.basis.mode == RetainCompact {
		q := bd.rmax * quantRel
		if q >= budget {
			return 0, fmt.Errorf("regen: compact retention cannot certify epsilon %.3g with rmax %.3g (float32 quantization alone contributes up to %.3g); recompile without CompactRetention or raise Epsilon above ~%.3g",
				bd.basis.opts.Epsilon, bd.rmax, q, 8*q)
		}
		budget -= q
	}
	return budget, nil
}

// chainBudget is the per-chain truncation budget before any quantization
// carve-out; it equals Series.budgetK for every series built over this
// basis.
func (b *Basis) chainBudget() float64 {
	if b.alphaR < 1 {
		return b.opts.Epsilon / 4
	}
	return b.opts.Epsilon / 2
}

// SeriesFor returns the regenerative-randomization series of the bound
// rewards certified for the given horizon — bitwise-identical to
// Build(model, rewards, regenState, opts, horizon), but at the cost of a
// coefficient binding (retaining basis, amortized across horizons) or a
// monotone extension of the binding's own incremental chains (non-retaining
// basis; a deeper horizon pays only the steps between the two truncation
// depths) instead of uniformize + step.
// Under compact retention the b coefficients come from float32-rounded
// vectors (not bitwise-identical to Build); the truncation levels then
// certify against the quantization-reduced budget of truncBudget, so the
// total error stays within Epsilon.
func (bd *Binding) SeriesFor(horizon float64) (*Series, error) {
	return bd.SeriesForCtx(context.Background(), horizon)
}

// SeriesForCtx is SeriesFor with cooperative cancellation: ctx is tested
// once per chain-extension step. A cancelled call leaves the chain store
// exactly as far as it got (append-only, never rolled back), so a retry
// resumes there and returns a series bitwise-identical to an uninterrupted
// call.
//
// On a retaining basis this is the one-binding case of PrebindManyCtx. On a
// non-retaining one the binding's own chains extend monotonically, one
// chain after the other, each step running the single-lane fused kernel a
// one-rewards Build runs (bitwise-identical per lane to the lockstep
// multi-lane one).
func (bd *Binding) SeriesForCtx(ctx context.Context, horizon float64) (*Series, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	b := bd.basis
	if b.mode != RetainNone {
		series, err := b.bindMany(ctx, []*Binding{bd}, horizon)
		if err != nil {
			return nil, err
		}
		return series[0], nil
	}
	budget, err := bd.truncBudget()
	if err != nil {
		return nil, err
	}
	g := goal{lam: b.dtmc.Lambda * horizon, bounds: []bound{{bd.rmax, budget}}}
	bd.mu.Lock()
	defer bd.mu.Unlock()
	if bd.incMain == nil {
		bd.incMain, bd.incPrime = bd.newIncChains()
	}
	s := b.newSeries(bd.rmax, bd.rAbs, horizon)
	for _, cs := range []*chainState{bd.incMain, bd.incPrime} {
		if cs == nil {
			continue
		}
		if err := b.grow(ctx, cs, g); err != nil {
			return nil, err
		}
		s.cut(cs.primed, g.level(cs.primed, cs.a, 0), cs.snapshot(), cs.bs[0])
	}
	return s, nil
}

// newIncChains creates the binding-owned chains of the non-retaining
// incremental store (prime nil when α_r = 1): they start from the same u₀ /
// u'₀ a fused build starts from and track the b series directly out of the
// fused step kernel, so nothing beyond O(states) working vectors and O(K)
// scalars is retained.
func (bd *Binding) newIncChains() (main, prime *chainState) {
	b := bd.basis
	lanes := [][]float64{bd.rewards}
	main = b.newChain(false, lanes, nil, &bd.bytes)
	bd.bytes.Add(int64(b.model.N()) * 16) // the chain's two working vectors
	if b.alphaR < 1 {
		prime = b.newChain(true, lanes, nil, &bd.bytes)
		bd.bytes.Add(int64(b.model.N()) * 16)
	}
	return main, prime
}

// BuildManyCtx builds the series of several reward vectors over this
// basis's shared DTMC in one fresh stepping pass: the chain trajectory u_k
// is reward-independent, so all R vectors ride one traversal of the DTMC
// per step (multi-lane lockstep; each stored entry is loaded once for all
// lanes), and when α_r < 1 the main and primed chains also step in lockstep
// while both still need depth. Every returned series is bitwise-identical
// to the corresponding single-rewards Build — per-lane kernel arithmetic is
// unchanged (see sparse.StepFusedMulti), each lane's truncation level comes
// from the same monotone bound searched over the same values, and lanes
// that certify early only carry prefix slices of the shared arrays — and to
// what the corresponding binding's SeriesFor builds on a non-retaining
// basis. It is the grouped construction path of the query planner for
// non-retaining compiled models.
//
// ctx is tested once per stepping iteration; a cancel returns a
// core.CancelError with the steps completed.
func (b *Basis) BuildManyCtx(ctx context.Context, rewardsList [][]float64, horizon float64) ([]*Series, error) {
	if len(rewardsList) == 0 {
		return nil, fmt.Errorf("regen: BuildManyCtx needs at least one rewards vector")
	}
	g := goal{lam: b.dtmc.Lambda * horizon, bounds: make([]bound, len(rewardsList))}
	for ri, rewards := range rewardsList {
		rmax, err := core.CheckRewards(rewards, b.model.N())
		if err != nil {
			return nil, err
		}
		g.bounds[ri] = bound{rmax, b.chainBudget()}
	}
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	// With several reward lanes the dot side dominates the stepping pass;
	// one shared row-interleaved rewards layout keeps its traffic at R
	// consecutive floats per row (see sparse.StepLane.RewardsIx — a pure
	// layout change, results bitwise-identical).
	var rewardsIx []float64
	if len(rewardsList) > 1 {
		rewardsIx = sparse.InterleaveRewards(rewardsList)
	}
	main := b.newChain(false, rewardsList, rewardsIx, nil)
	var prime *chainState
	if b.alphaR < 1 {
		prime = b.newChain(true, rewardsList, rewardsIx, nil)
	}
	if _, err := advance(ctx, b.dtmc, b.plan, g, main, prime); err != nil {
		return nil, err
	}
	out := make([]*Series, len(rewardsList))
	for ri, rewards := range rewardsList {
		s := b.newSeries(g.bounds[ri].rmax, b.absorbingRewards(rewards), horizon)
		for _, cs := range []*chainState{main, prime} {
			if cs != nil {
				s.cut(cs.primed, g.level(cs.primed, cs.a, ri), cs.snapshot(), cs.bs[ri])
			}
		}
		out[ri] = s
	}
	return out, nil
}

// Prewarm eagerly extends the reward-free retained chains deep enough to
// certify the given horizon for any rewards vector with rmax ≤ 1 (the
// conditional series are scale-free in the rewards, so this is the natural
// unit proxy; larger rmax at query time only extends further from where the
// warmup stopped). It makes the otherwise lazy compile phase do its
// expensive stepping up front — which is what gives a compile request a
// real cancellation surface. No-op on a non-retaining basis. Prewarm does
// not change any result: chains extend to at least this depth on first
// query anyway.
func (b *Basis) Prewarm(ctx context.Context, horizon float64) error {
	if b.mode == RetainNone {
		return nil
	}
	if err := checkHorizon(horizon); err != nil {
		return err
	}
	g := goal{lam: b.dtmc.Lambda * horizon, bounds: []bound{{1, b.chainBudget()}}}
	for _, cs := range []*chainState{b.main, b.prime} {
		if cs == nil {
			continue
		}
		if _, err := b.extend(ctx, cs, g); err != nil {
			return err
		}
	}
	return nil
}

// PrebindManyCtx warms the b-series caches of several bindings of this
// basis for one shared horizon: the chains are extended once under the
// deepest requirement, and every binding's missing coefficients are
// replayed as reward lanes of the multi-rewards dot kernel — the retained
// vectors are streamed once per eight-vector block for all bindings instead
// of once per binding. The cached values are bitwise-identical to what each
// binding's own SeriesFor would compute (the per-(vector, rewards) replay
// arithmetic is association-fixed), so this is purely a throughput
// optimization; a later SeriesFor call finds its coefficients cached. No-op
// on a non-retaining basis.
//
// ctx is tested once per step of the shared chain extension; the replay
// fill itself is not interrupted (it is cheap relative to stepping and
// keeps the store append-consistent).
func (b *Basis) PrebindManyCtx(ctx context.Context, bds []*Binding, horizon float64) error {
	if b.mode == RetainNone || len(bds) == 0 {
		return nil
	}
	if err := checkHorizon(horizon); err != nil {
		return err
	}
	_, err := b.bindMany(ctx, bds, horizon)
	return err
}

// bindMany is the retained-basis replay path behind PrebindManyCtx and
// SeriesForCtx: each retained chain in turn (main, then prime) is extended
// once under the union of the bindings' bounds, each binding's truncation
// level is searched over the shared a values — the same monotone bound
// SeriesFor searches, hence identical levels — and fillMany replays the
// missing coefficients. It returns every binding's series.
func (b *Basis) bindMany(ctx context.Context, bds []*Binding, horizon float64) ([]*Series, error) {
	g := goal{lam: b.dtmc.Lambda * horizon, bounds: make([]bound, len(bds))}
	out := make([]*Series, len(bds))
	for i, bd := range bds {
		if bd.basis != b {
			return nil, fmt.Errorf("regen: PrebindManyCtx binding %d belongs to a different basis", i)
		}
		budget, err := bd.truncBudget()
		if err != nil {
			return nil, err
		}
		g.bounds[i] = bound{bd.rmax, budget}
		out[i] = b.newSeries(bd.rmax, bd.rAbs, horizon)
	}
	tops := make([]int, len(bds))
	for _, cs := range []*chainState{b.main, b.prime} {
		if cs == nil {
			continue
		}
		snap, err := b.extend(ctx, cs, g)
		if err != nil {
			return nil, err
		}
		for i := range bds {
			tops[i] = g.level(cs.primed, snap.a, i)
		}
		bs := b.fillMany(bds, snap, tops, cs.primed)
		for i, s := range out {
			s.cut(cs.primed, tops[i], snap, bs[i])
		}
	}
	return out, nil
}

// fillMany computes the missing b(0..tops[i]) of every binding over one
// chain snapshot and returns each binding's b(0..tops[i]). b(0) is the plain
// compensated dot the fused build starts from; b(k ≥ 1) comes from one
// grouped replay over the union range. Stores only ever grow and every
// entry is a pure function of (basis, rewards, k), so concurrent fills
// commute: whoever appends first appends the same values.
//
// A single binding holds its lock across the replay, so concurrent series
// requests on it replay each coefficient once; a group locks each binding
// only to read its store and to publish.
func (b *Basis) fillMany(bds []*Binding, snap chainSnapshot, tops []int, primed bool) [][]float64 {
	store := func(bd *Binding) *[]float64 {
		if primed {
			return &bd.bPrime
		}
		return &bd.bMain
	}
	single := len(bds) == 1
	if single {
		bds[0].mu.Lock()
		defer bds[0].mu.Unlock()
	}
	type need struct {
		i     int // index into bds
		start int // first missing coefficient index ≥ 1 at plan time
	}
	var needs []need
	lo, hi := int(^uint(0)>>1), -1
	for i, bd := range bds {
		if !single {
			bd.mu.Lock()
		}
		st := store(bd)
		if len(*st) == 0 {
			*st = append(*st, bd.b0(snap))
			bd.bytes.Add(8)
		}
		start := len(*st)
		if !single {
			bd.mu.Unlock()
		}
		if start <= tops[i] {
			needs = append(needs, need{i: i, start: start})
			lo, hi = min(lo, start), max(hi, tops[i])
		}
	}
	// One grouped replay covers [lo, hi] for every needing binding; a
	// binding whose own range is narrower wastes a few lane dots, which the
	// shared streaming more than pays for.
	rewardsList := make([][]float64, len(needs))
	outs := make([][]float64, len(needs))
	for j, nd := range needs {
		rewardsList[j] = bds[nd.i].rewards
		outs[j] = make([]float64, hi+1-lo)
	}
	if len(needs) > 0 {
		if b.mode == RetainCompact {
			replay(b, snap.us32, lo, rewardsList, outs)
		} else {
			replay(b, snap.us, lo, rewardsList, outs)
		}
	}
	bs := make([][]float64, len(bds))
	j := 0
	for i, bd := range bds {
		if !single {
			bd.mu.Lock()
		}
		st := store(bd)
		if j < len(needs) && needs[j].i == i {
			initial := len(*st)
			for k := initial; k <= tops[i]; k++ {
				var bk float64
				if ak := snap.a[k]; ak > 0 {
					bk = outs[j][k-lo] / ak
				}
				*st = append(*st, bk)
			}
			if grew := len(*st) - initial; grew > 0 {
				bd.bytes.Add(8 * int64(grew))
			}
			j++
		}
		bs[i] = (*st)[: tops[i]+1 : tops[i]+1]
		if !single {
			bd.mu.Unlock()
		}
	}
	return bs
}

// b0 is the k = 0 coefficient: the plain compensated dot the fused build
// starts from, over the retained u₀ at the basis's retention precision.
func (bd *Binding) b0(snap chainSnapshot) float64 {
	a0 := snap.a[0]
	if a0 <= 0 {
		return 0
	}
	if bd.basis.mode == RetainCompact {
		return sparse.DotW(snap.us32[0], bd.rewards) / a0
	}
	return sparse.Dot(snap.us[0], bd.rewards) / a0
}

// replay fills outs[r][k−lo] with the reward dot of retained vector u_k
// against rewardsList[r], for lo ≤ k < lo+len(outs[r]). Vector u_k was
// produced by step k−1, so the replay runs the dot side of the exact kernel
// that step ran — the frontier kernel while the reachable set was still
// growing, the full-sweep kernel after (same chunk decomposition, same skip
// rule, same chain assignment) — and under full retention every
// coefficient matches the fused build bit for bit. Under compact retention
// the same arithmetic runs over the float32-rounded vectors.
//
// The full-sweep range of one float64 rewards vector runs
// RewardDotFusedBatch, whose lane pairs fan over the worker pool and which
// measures several times faster than a one-lane RewardDotMulti
// (BenchmarkReplayKernels); everything else runs RewardDotMulti. Both are
// bitwise-identical per (vector, rewards) pair.
func replay[T sparse.Real](b *Basis, us [][]T, lo int, rewardsList, outs [][]float64) {
	hi := lo + len(outs[0]) - 1
	k := lo
	if fr := b.fr; fr != nil {
		for ; k <= hi && !fr.Saturated(k-1); k++ {
			for r, rw := range rewardsList {
				outs[r][k-lo] = sparse.FrontierRewardDot(fr, k-1, us[k], rw, b.plan.zpos)
			}
		}
	}
	if k > hi {
		return
	}
	tails := make([][]float64, len(outs))
	for r := range outs {
		tails[r] = outs[r][k-lo:]
	}
	if xs, ok := any(us[k : hi+1]).([][]float64); ok && len(rewardsList) == 1 {
		b.dtmc.P.RewardDotFusedBatch(xs, rewardsList[0], b.plan.zero, tails[0])
		return
	}
	sparse.RewardDotMulti(b.dtmc.P, us[k:hi+1], rewardsList, b.plan.zero, tails)
}
