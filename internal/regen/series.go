// Package regen implements regenerative randomization (the paper's "RR"
// method) and the construction shared with its Laplace-inversion variant.
//
// Given the randomized DTMC X̂ (rate Λ) and a regenerative state r, the
// method characterizes the model by scalar series obtained while stepping
// vectors of the size of the original chain:
//
//	u_0 = e_r,  u_{k+1} = zero_{r,F}(u_k·P)
//	a(k) = ‖u_k‖₁            survival probability (no return to r, no absorption)
//	b(k) = u_k·r̄ / a(k)      conditional reward rate
//	q_k  = (u_k·P)_r / a(k)   regeneration probability
//	v^i_k = (u_k·P)_{f_i}/a(k) absorption probabilities
//	w_k  = a(k+1)/a(k)        continuation probability
//
// plus primed series from the non-regenerative part of the initial
// distribution when α_r < 1. The truncated transformed chain V_{K,L} built
// from these series (Figure 1 of the paper) reproduces TRR and MRR of the
// original model within ε/2 for all t up to a target horizon; the remaining
// ε/2 is spent solving V_{K,L}, either by standard randomization (RR, this
// package) or in closed form in the Laplace domain (RRL, package rrl).
package regen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/faultpoint"
	"regenrand/internal/poisson"
	"regenrand/internal/sparse"
)

// FaultStep is the fault-injection site hit once per chain stepping
// iteration in every construction loop (fused builds and basis extensions):
// chaos tests arm it to slow, fail, or crash mid-compile.
const FaultStep = "regen.step"

// checkpoint is the per-step cancellation test of the construction loops:
// the caller's ctx first, then the fault-injection site. steps is how many
// stepping iterations this invocation completed, reported through
// core.CancelError so callers see how far an abandoned construction got.
// The work itself is never lost — chains are append-only, so a later retry
// resumes (basis) or re-runs deterministically (fused build).
func checkpoint(ctx context.Context, steps int) error {
	if err := ctx.Err(); err != nil {
		return core.Cancelled(err, steps, 0)
	}
	if err := faultpoint.Hit(FaultStep); err != nil {
		return err
	}
	return nil
}

// underflowFloor stops the series construction once the surviving mass is
// numerically negligible for any conceivable error budget.
const underflowFloor = 1e-280

// Series is the regenerative-randomization characterization of a model,
// truncated at K (and L for the primed chain).
type Series struct {
	// Lambda is the randomization rate Λ.
	Lambda float64
	// Regen is the regenerative state index in the original model.
	Regen int
	// AlphaR is the initial probability of the regenerative state.
	AlphaR float64
	// K is the truncation level of the regenerative chain: A and B have
	// K+1 entries (indices 0..K); Q and each V[i] have K entries (0..K−1).
	K int
	A []float64 // a(k)
	B []float64 // b(k)
	Q []float64 // q_k
	V [][]float64
	// L, AP, BP, QP, VP are the primed-chain counterparts; they are nil and
	// L = -1 when AlphaR = 1.
	L  int
	AP []float64
	BP []float64
	QP []float64
	VP [][]float64
	// Absorbing lists the model indices of the absorbing states, aligned
	// with the first index of V and VP.
	Absorbing []int
	// RewardsAbsorbing holds the reward rates of the absorbing states.
	RewardsAbsorbing []float64
	// RMax is the maximum reward rate of the model.
	RMax float64
	// Eps is the total error budget ε the series was built for; the model
	// truncation consumed ε/2 of it at horizon Horizon.
	Eps float64
	// Horizon is the largest time the truncation is certified for.
	Horizon float64
}

// Steps returns the number of full-model DTMC steps the construction used,
// the quantity reported in Tables 1 and 2 of the paper (K when α_r = 1,
// K + L otherwise).
func (s *Series) Steps() int {
	if s.L < 0 {
		return s.K
	}
	return s.K + s.L
}

// StepsFor returns the construction steps that would have sufficed for the
// (smaller) horizon t, i.e. the K(t) + L(t) of a per-t run as tabulated in
// the paper. The truncation-error bounds are monotone non-increasing in the
// candidate level, so the smallest certified level is found by binary search
// (O(log K) Poisson-tail evaluations instead of the former O(K) scan — this
// runs once per requested time point). t must be ≤ Horizon.
func (s *Series) StepsFor(t float64) int {
	lam := s.Lambda * t
	budget := s.budgetK()
	k := sort.Search(s.K, func(cand int) bool {
		return truncErrS(s.RMax, s.A, cand, lam) <= budget
	})
	if s.L < 0 {
		return k
	}
	l := sort.Search(s.L, func(cand int) bool {
		return truncErrP(s.RMax, s.AP, cand, lam) <= budget
	})
	return k + l
}

func (s *Series) budgetK() float64 {
	if s.AlphaR < 1 {
		return s.Eps / 4
	}
	return s.Eps / 2
}

// SuffixAbs returns the geometric tail-bound metadata of an interleaved
// coefficient array: S[d] = Σ_{j≥d} (|packed[stride·j]| + … +
// |packed[stride·j+stride−1]|), with a trailing sentinel S[n/stride] = 0.
// Every |z| < 1 then bounds the discarded tail of each interleaved series
// truncated at degree d by
//
//	|Σ_{j≥d} c_j z^j| ≤ Σ_{j≥d} |c_j| |z|^j ≤ S[d]·|z|^d,
//
// which is what lets a transform evaluation stop its ascending sweep as
// soon as S[d]·|z|^d falls below the evaluation's tail tolerance. The sums
// are accumulated from the tail so each S[d] is itself an upper bound in
// exact arithmetic truncated once (not a difference of rounded prefix
// sums).
func SuffixAbs(packed []float64, stride int) []float64 {
	if stride <= 0 || len(packed)%stride != 0 {
		panic(fmt.Sprintf("regen: SuffixAbs stride %d does not divide length %d", stride, len(packed)))
	}
	n := len(packed) / stride
	s := make([]float64, n+1)
	for d := n - 1; d >= 0; d-- {
		w := s[d+1]
		for i := 0; i < stride; i++ {
			w += math.Abs(packed[stride*d+i])
		}
		s[d] = w
	}
	return s
}

// truncErrS bounds the measure error caused by truncating the regenerative
// chain at K for mission time with Poisson mean lam:
//
//	r_max · min( Q(K+1), a(K)·E[(N−K)⁺] )
//
// The truncated and untruncated transformed chains can be coupled until the
// first jump out of s_K, which requires a run of K consecutive
// non-regenerative steps after a visit to r at some step m (probability
// a(K)) plus one further Poisson event by time t (probability Q(m+K+1));
// the union bound over m gives a(K)·Σ_m Q(m+K+1) = a(K)·E[(N−K)⁺], and any
// such jump also requires at least K+1 events in total, giving the Q(K+1)
// cap.
func truncErrS(rmax float64, a []float64, K int, lam float64) float64 {
	if K >= len(a) {
		return math.Inf(1)
	}
	tail := poisson.TailUpper(lam, K+1)
	run := a[K] * poisson.MeanExcessUpper(lam, K)
	if run < tail {
		tail = run
	}
	return rmax * tail
}

// truncErrP bounds the error of truncating the primed chain at L: the chain
// is traversed once, so jumping out of s'_L requires surviving L steps
// (probability a'(L)) and at least L+1 Poisson events by time t.
func truncErrP(rmax float64, ap []float64, L int, lam float64) float64 {
	if L >= len(ap) {
		return math.Inf(1)
	}
	tail := poisson.TailUpper(lam, L+1)
	if ap[L] < tail {
		tail = ap[L]
	}
	return rmax * tail
}

// zeroPlan precomputes the sorted list of destinations a series step zeroes
// (the regenerative state plus every absorbing state), where each lands in
// the StepFused zeroVals output, and the dense position map the frontier
// kernels index by destination row.
type zeroPlan struct {
	zero     []int32
	zpos     []int32 // zpos[row] = index into zero, or -1
	regenPos int
	absPos   []int
}

func newZeroPlan(n, regen int, absorbing []int) *zeroPlan {
	p := &zeroPlan{absPos: make([]int, len(absorbing))}
	p.zero = make([]int32, 0, len(absorbing)+1)
	p.zero = append(p.zero, int32(regen))
	for _, f := range absorbing {
		p.zero = append(p.zero, int32(f))
	}
	sort.Slice(p.zero, func(i, j int) bool { return p.zero[i] < p.zero[j] })
	// Dense position map: one pass instead of the former quadratic
	// state-by-state scans — models generated with many absorbing states
	// made newZeroPlan itself show up in profiles.
	p.zpos = make([]int32, n)
	for i := range p.zpos {
		p.zpos[i] = -1
	}
	for i, z := range p.zero {
		p.zpos[z] = int32(i)
	}
	p.regenPos = int(p.zpos[regen])
	for i, f := range absorbing {
		p.absPos[i] = int(p.zpos[f])
	}
	return p
}

// slabArena hands out zeroed n-vectors carved from large contiguous blocks.
// Retaining chains used to allocate one []float64 per step, scattering the
// retained vectors across the heap; slab allocation keeps consecutive u_k
// contiguous, which is what the batched reward-dot sweeps of the compile
// phase stream over.
type slabArena struct {
	n   int
	buf []float64
}

// slabVectors sizes slabs at ~2 MiB of float64s, at least 8 vectors.
func slabVectors(n int) int {
	v := (1 << 18) / n
	if v < 8 {
		v = 8
	}
	return v
}

func (sa *slabArena) next() []float64 {
	if len(sa.buf) < sa.n {
		sa.buf = make([]float64, slabVectors(sa.n)*sa.n)
	}
	v := sa.buf[:sa.n:sa.n]
	sa.buf = sa.buf[sa.n:]
	return v
}

// slab32Arena is the float32 counterpart for compact retention: same ~2 MiB
// slabs, twice the vectors per slab, half the retained bytes per step.
type slab32Arena struct {
	n   int
	buf []float32
}

func (sa *slab32Arena) next() []float32 {
	if len(sa.buf) < sa.n {
		v := (1 << 19) / sa.n
		if v < 8 {
			v = 8
		}
		sa.buf = make([]float32, v*sa.n)
	}
	v := sa.buf[:sa.n:sa.n]
	sa.buf = sa.buf[sa.n:]
	return v
}

// roundFrom retains a float32 rounding of u (round-to-nearest per entry).
func (sa *slab32Arena) roundFrom(u []float64) []float32 {
	v := sa.next()
	for i, x := range u {
		v[i] = float32(x)
	}
	return v
}

// chainState steps one restricted chain (regenerative or primed) while
// tracking the conditional reward series b of any number of reward lanes —
// none for the reward-independent chains a retaining Basis records, one for
// a binding's incremental chains, R for a grouped build. The fused kernel's
// stepped vector, mass and zero diversions do not depend on the lanes, so a
// chain's trajectory is the same whatever it tracks.
//
// When fr is non-nil the chain steps through the reachability-frontier
// kernels until the frontier saturates (see sparse.Frontier); the kernel
// choice is a pure function of the step index, so every consumer of the
// chain — fused builds, basis extensions and reward replays — performs
// bit-for-bit identical arithmetic for a given step.
type chainState struct {
	fr       *sparse.Frontier
	primed   bool // the chain of the initial distribution without r
	u, buf   []float64
	zeroVals []float64
	a, q     []float64
	v        [][]float64
	done     bool
	// rewards are the tracked lanes, bs[r] the b series of rewards[r], dots
	// the per-step kernel output. rewardsIx is the shared row-interleaved
	// layout of more than one lane (see sparse.StepLane.RewardsIx).
	rewards   [][]float64
	rewardsIx []float64
	bs        [][]float64
	dots      []float64
	// record retains every post-zeroing stepped vector, the raw material for
	// binding reward vectors after the fact: at working precision in us
	// (us[k] = u_k, slab-contiguous, never overwritten), or — when compact
	// is set — as float32 roundings in us32 while the float64 stepping
	// ping-pongs through two working buffers exactly like a non-recording
	// chain (the stepped trajectory itself stays full precision; only what
	// is kept for replay is rounded).
	record  bool
	compact bool
	us      [][]float64
	us32    [][]float32
	arena   slabArena
	arena32 slab32Arena
	// bytes, when non-nil, accumulates the retained heap bytes of this chain
	// (stepped vectors plus per-step statistics) — the per-artifact size
	// accounting byte-budget cache eviction reads. Updated per step with one
	// atomic add so readers never contend on the lock a long extension holds.
	bytes *atomic.Int64
	n     int
}

// retainedStepBytes returns the heap bytes one recorded step adds: the
// retained vector at the chain's retention precision plus the appended
// a/q/v and per-lane b statistics.
func (cs *chainState) retainedStepBytes() int64 {
	stats := int64(2+len(cs.v)+len(cs.rewards)) * 8
	if cs.compact {
		return int64(cs.n)*4 + stats
	}
	if cs.record {
		return int64(cs.n)*8 + stats
	}
	return stats
}

// newChain starts the regenerative chain (u_0 = e_r, mass 1) or, when
// primed, the chain of the initial distribution without r (mass 1 − α_r),
// tracking the b series of rewards (nil: none; rewardsIx is their shared
// interleaving when there are several). A reward-free chain is the basis's
// retained store: it records its stepped vectors at the basis's retention
// precision. bytes, when non-nil, accumulates the chain's retained heap.
func (b *Basis) newChain(primed bool, rewards [][]float64, rewardsIx []float64, bytes *atomic.Int64) *chainState {
	n := b.model.N()
	u0 := make([]float64, n)
	a0 := 1.0
	if primed {
		copy(u0, b.model.Initial())
		u0[b.regenState] = 0
		a0 = 1 - b.alphaR
	} else {
		u0[b.regenState] = 1
	}
	record := rewards == nil && b.mode != RetainNone
	cs := &chainState{
		fr:        b.fr,
		primed:    primed,
		zeroVals:  make([]float64, len(b.plan.zero)),
		v:         make([][]float64, len(b.plan.absPos)),
		rewards:   rewards,
		rewardsIx: rewardsIx,
		bs:        make([][]float64, len(rewards)),
		dots:      make([]float64, len(rewards)),
		record:    record,
		compact:   record && b.mode == RetainCompact,
		arena:     slabArena{n: n},
		arena32:   slab32Arena{n: n},
		bytes:     bytes,
		n:         n,
	}
	switch {
	case cs.compact:
		cs.u = u0
		cs.buf = make([]float64, n)
		cs.us32 = append(cs.us32, cs.arena32.roundFrom(u0))
	case record:
		// Copy u0 into the arena so the whole retained sequence is slabbed.
		v := cs.arena.next()
		copy(v, u0)
		cs.u = v
		cs.us = append(cs.us, v)
		cs.buf = cs.arena.next()
	default:
		cs.u = u0
		cs.buf = make([]float64, n)
	}
	cs.a = append(cs.a, a0)
	for r, rw := range rewards {
		var b0 float64
		if a0 > 0 {
			b0 = sparse.Dot(u0, rw) / a0
		}
		cs.bs[r] = append(cs.bs[r], b0)
	}
	if !(a0 > 0) {
		cs.done = true
	}
	if cs.bytes != nil {
		cs.bytes.Add(cs.retainedStepBytes())
	}
	return cs
}

// stepIndex returns the index of the step that will run next (stepping
// u_stepIndex to u_stepIndex+1).
func (cs *chainState) stepIndex() int { return len(cs.a) - 1 }

// finishStep records the outputs of one fused step — mass next, the
// zeroVals diversions and the lane dots — and rotates the buffers.
func (cs *chainState) finishStep(plan *zeroPlan, next float64) {
	ak := cs.a[len(cs.a)-1]
	cs.q = append(cs.q, cs.zeroVals[plan.regenPos]/ak)
	for i, p := range plan.absPos {
		cs.v[i] = append(cs.v[i], cs.zeroVals[p]/ak)
	}
	cs.u, cs.buf = cs.buf, cs.u
	if cs.compact {
		cs.us32 = append(cs.us32, cs.arena32.roundFrom(cs.u))
	} else if cs.record {
		cs.us = append(cs.us, cs.u)
		cs.buf = cs.arena.next()
	}
	cs.a = append(cs.a, next)
	for r := range cs.bs {
		var bk float64
		if next > 0 {
			bk = cs.dots[r] / next
		}
		cs.bs[r] = append(cs.bs[r], bk)
	}
	if !(next > 0) || next < underflowFloor {
		cs.done = true
	}
	if cs.bytes != nil {
		cs.bytes.Add(cs.retainedStepBytes())
	}
}

// snapshot returns capacity-capped views of the chain's current prefix:
// later steps append past them and never mutate what a caller holds.
func (cs *chainState) snapshot() chainSnapshot {
	snap := chainSnapshot{
		a:    cs.a[:len(cs.a):len(cs.a)],
		q:    cs.q[:len(cs.q):len(cs.q)],
		us:   cs.us[:len(cs.us):len(cs.us)],
		us32: cs.us32[:len(cs.us32):len(cs.us32)],
		v:    make([][]float64, len(cs.v)),
	}
	for i := range cs.v {
		snap.v[i] = cs.v[i][:len(cs.v[i]):len(cs.v[i])]
	}
	return snap
}

// chainSnapshot is an immutable view of one chain's reward-free statistics.
// Exactly one of us/us32 is populated for a retained chain, per the basis's
// retention precision.
type chainSnapshot struct {
	a, q []float64
	v    [][]float64
	us   [][]float64
	us32 [][]float32
}

// stepChains advances chains — all at the same step index — by one
// randomized step through one traversal of the DTMC. The vector–matrix
// product, the zeroing of the regenerative and absorbing destinations, the
// surviving ℓ₁ mass and every lane's reward dot come out of one fused kernel
// pass, frontier-restricted while the reachable set is still growing and
// full-sweep after. One chain with at most one lane runs the specialized
// StepFused kernel; anything more runs StepFusedMulti, whose per-lane
// arithmetic is bitwise-identical to it.
func stepChains(d *ctmc.DTMC, plan *zeroPlan, chains []*chainState) {
	cs := chains[0]
	step := cs.stepIndex()
	fr := cs.fr
	if fr != nil && fr.Saturated(step) {
		fr = nil
	}
	if len(chains) == 1 && len(cs.rewards) <= 1 {
		var rw []float64
		if len(cs.rewards) == 1 {
			rw = cs.rewards[0]
		}
		var next, dot float64
		if fr != nil {
			next, dot = fr.StepFused(step, cs.buf, cs.u, rw, plan.zpos, cs.zeroVals)
		} else {
			next, dot = d.StepFused(cs.buf, cs.u, rw, plan.zero, cs.zeroVals)
		}
		if len(cs.dots) == 1 {
			cs.dots[0] = dot
		}
		cs.finishStep(plan, next)
		return
	}
	lanes := make([]sparse.StepLane, len(chains))
	for i, c := range chains {
		lanes[i] = sparse.StepLane{
			Dst:       c.buf,
			Src:       c.u,
			ZeroVals:  c.zeroVals,
			Rewards:   c.rewards,
			RewardsIx: c.rewardsIx,
			Zero:      plan.zero,
			Dots:      c.dots,
		}
	}
	if fr != nil {
		fr.StepFusedMulti(step, lanes, plan.zpos)
	} else {
		d.P.StepFusedMulti(lanes, plan.zpos)
	}
	for i, c := range chains {
		c.finishStep(plan, lanes[i].Sum)
	}
}

// bound is one reward lane's truncation requirement: its maximum reward
// rate and the slice of ε its truncation error may use.
type bound struct{ rmax, budget float64 }

// goal is the depth a construction needs at Poisson mean lam = Λ·horizon: a
// chain is deep enough once truncating it at its current depth keeps every
// bound within budget (or it is exhausted). The bounds are monotone
// non-increasing in the level, so each lane's truncation level is
// binary-searched over the chain and does not depend on how much deeper the
// chain was stepped for other lanes or earlier horizons.
type goal struct {
	lam    float64
	bounds []bound
}

// meets reports whether truncating a chain with statistics a at level keeps
// bd's truncation error within its budget.
func (g goal) meets(primed bool, bd bound, a []float64, level int) bool {
	if primed {
		return truncErrP(bd.rmax, a, level, g.lam) <= bd.budget
	}
	return truncErrS(bd.rmax, a, level, g.lam) <= bd.budget
}

// needs reports whether cs (nil: no chain) must be stepped further.
func (g goal) needs(cs *chainState) bool {
	if cs == nil || cs.done {
		return false
	}
	for _, bd := range g.bounds {
		if !g.meets(cs.primed, bd, cs.a, cs.stepIndex()) {
			return true
		}
	}
	return false
}

// level returns lane i's truncation level over a chain prefix a: the
// smallest level its bound certifies, or the depth when none below it does.
func (g goal) level(primed bool, a []float64, i int) int {
	return sort.Search(len(a)-1, func(l int) bool { return g.meets(primed, g.bounds[i], a, l) })
}

// advance steps main and prime (either may be nil) until g no longer needs
// either: in lockstep, one DTMC traversal per step, while both need depth
// (the common case is a short primed chain riding the main chain's early
// steps for free), then whichever still does alone. ctx and the fault point
// are tested once per iteration, so a cancel returns within one step's
// latency carrying a core.CancelError with the steps completed; a
// successful run is bitwise-identical to an uncancellable one — the check
// performs no arithmetic. It returns the iterations completed.
func advance(ctx context.Context, d *ctmc.DTMC, plan *zeroPlan, g goal, main, prime *chainState) (int, error) {
	both := []*chainState{main, prime}
	for steps := 0; ; steps++ {
		var chains []*chainState
		switch m, p := g.needs(main), g.needs(prime); {
		case m && p:
			chains = both
		case m:
			chains = both[:1]
		case p:
			chains = both[1:]
		default:
			return steps, nil
		}
		if err := checkpoint(ctx, steps); err != nil {
			return steps, err
		}
		stepChains(d, plan, chains)
	}
}

// cut sets the K half of s (the L half when primed) from a chain prefix c
// and its b series: every series is truncated at level, and the published
// slices are capacity-capped so later chain extension never mutates them.
func (s *Series) cut(primed bool, level int, c chainSnapshot, b []float64) {
	a, bb := c.a[:level+1:level+1], b[:level+1:level+1]
	nq := min(level, len(c.q))
	q := c.q[:nq:nq]
	v := make([][]float64, len(c.v))
	for i := range c.v {
		nv := min(level, len(c.v[i]))
		v[i] = c.v[i][:nv:nv]
	}
	if primed {
		s.L, s.AP, s.BP, s.QP, s.VP = level, a, bb, q, v
		return
	}
	s.K, s.A, s.B, s.Q, s.V = level, a, bb, q, v
}

// disableFrontier is the ablation/testing knob for reachability-frontier
// pruning. It is read once per construction (NewBasisMode, hence Build), so
// a basis created with one setting keeps it for its whole life.
var disableFrontier atomic.Bool

// SetDisableFrontier turns reachability-frontier pruning off (true) or on
// (false) for subsequently created constructions and returns the previous
// setting. It exists for ablation benchmarks and equivalence tests; the
// default (pruning on) is strictly faster and agrees with the reference
// path to a couple of ulps per step.
func SetDisableFrontier(v bool) bool { return disableFrontier.Swap(v) }

// validateRegenInputs checks the reward-independent preconditions of a
// Basis.
func validateRegenInputs(model *ctmc.CTMC, regen int, opts *core.Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if regen < 0 || regen >= model.N() {
		return fmt.Errorf("regen: regenerative state %d out of range", regen)
	}
	if model.IsAbsorbing(regen) {
		return fmt.Errorf("regen: regenerative state %d is absorbing", regen)
	}
	init := model.Initial()
	for _, f := range model.Absorbing() {
		if init[f] != 0 {
			return fmt.Errorf("regen: initial probability %v on absorbing state %d (the paper assumes P[X(0)=f_i]=0)", init[f], f)
		}
	}
	return nil
}

func checkHorizon(horizon float64) error {
	if horizon <= 0 || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return fmt.Errorf("regen: invalid horizon %v", horizon)
	}
	return nil
}

// Build constructs the regenerative-randomization series for the model with
// the given reward structure, regenerative state, error budget opts.Epsilon
// and time horizon (the largest t the caller will evaluate). The model
// truncation consumes ε/2 (split ε/4 + ε/4 between the two chains when
// α_r < 1), exactly as in §2 of the paper. It is a one-lane
// Basis.BuildManyCtx over a fresh non-retaining basis.
func Build(model *ctmc.CTMC, rewards []float64, regen int, opts core.Options, horizon float64) (*Series, error) {
	b, err := NewBasisMode(model, regen, opts, RetainNone)
	if err != nil {
		return nil, err
	}
	series, err := b.BuildManyCtx(context.Background(), [][]float64{rewards}, horizon)
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// frontierFor returns the reachability frontier the series constructions of
// (model, regen) step through — sourced at the regenerative state plus the
// support of the initial distribution, so the main and primed chains (and
// their lockstep combination) share one frontier — or nil when frontier
// pruning is disabled.
func frontierFor(model *ctmc.CTMC, d *ctmc.DTMC, regen int) *sparse.Frontier {
	if disableFrontier.Load() {
		return nil
	}
	init := model.Initial()
	sources := make([]int, 0, 8)
	sources = append(sources, regen)
	for i, p := range init {
		if p != 0 && i != regen {
			sources = append(sources, i)
		}
	}
	return d.P.FrontierFor(sources)
}
