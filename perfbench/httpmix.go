package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"regenrand"
	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/sparse"
)

// http_mix: a closed-loop request mix against a regenserve subprocess on
// default limits, from two client goroutines. It stresses what the
// in-process workloads bypass — admission, JSON, the planner, and sharing
// through the compile cache, series cache and horizon buckets:
//
//	4/10 fresh reward vectors (rmax 1) on a retaining G=20 compile
//	3/10 batches of 8 near-miss horizons on a horizon_buckets=4 compile
//	2/10 certified bounds with the Euler override on an ε=1e-6 compile
//	1/10 /v1/compile of a never-seen band model, then one query on it
//
// Every served answer is compared bit for bit with the same request run
// in-process on a model built from the same wire transition list.

const (
	httpClients    = 2
	httpHorizon    = 1e3  // library chains are prebuilt to this horizon
	httpBandStates = 2000 // states of the band models compiled over the wire
	httpTimeoutMS  = 60000
	httpStopGrace  = 10 * time.Second
)

// The request mix, one slot per op in a block of ten; each block is
// shuffled with the seed.
var httpMix = []byte("FFFFNNNEEB")

// Wire types: the JSON regenserve speaks.
type wireModel struct {
	States      int         `json:"states"`
	Transitions [][]float64 `json:"transitions"`
	Initial     [][]float64 `json:"initial"`
}

type wireQuery struct {
	Method   string    `json:"method,omitempty"`
	Measure  string    `json:"measure,omitempty"`
	Rewards  []float64 `json:"rewards"`
	Times    []float64 `json:"times"`
	Bounds   bool      `json:"bounds,omitempty"`
	Inverter string    `json:"inverter,omitempty"`
}

type wireCompile struct {
	Model           *wireModel `json:"model"`
	Epsilon         float64    `json:"epsilon,omitempty"`
	HorizonBuckets  int        `json:"horizon_buckets,omitempty"`
	PrebuildHorizon float64    `json:"prebuild_horizon,omitempty"`
	TimeoutMS       int64      `json:"timeout_ms,omitempty"`
}

type wireQueryReq struct {
	ModelID   string      `json:"model_id,omitempty"`
	Model     *wireModel  `json:"model,omitempty"`
	Queries   []wireQuery `json:"queries"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

type wireRow struct {
	T         float64  `json:"t"`
	Value     float64  `json:"value"`
	Lower     *float64 `json:"lower,omitempty"`
	Upper     *float64 `json:"upper,omitempty"`
	Abscissae int      `json:"abscissae,omitempty"`
}

type wireResult struct {
	Results  []wireRow `json:"results,omitempty"`
	Error    string    `json:"error,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
}

type wireQueryResp struct {
	Results []wireResult `json:"results"`
}

type wireCompileResp struct {
	ModelID string `json:"model_id"`
}

// toWire lists a model's transitions and initial distribution.
func toWire(c *regenrand.CTMC) *wireModel {
	w := &wireModel{States: c.N()}
	for _, e := range c.Transitions() {
		w.Transitions = append(w.Transitions, []float64{float64(e.Row), float64(e.Col), e.Val})
	}
	for i, p := range c.Initial() {
		if p != 0 {
			w.Initial = append(w.Initial, []float64{float64(i), p})
		}
	}
	return w
}

// fromWire builds the in-process model from a wire model exactly as the
// server does: one Builder call per listed transition, in order.
func fromWire(w *wireModel) (*regenrand.CTMC, error) {
	b := regenrand.NewBuilder(w.States)
	for _, t := range w.Transitions {
		if err := b.AddTransition(int(t[0]), int(t[1]), t[2]); err != nil {
			return nil, err
		}
	}
	for _, in := range w.Initial {
		if err := b.SetInitial(int(in[0]), in[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// compileOpts are the compile options the server derives from a request's
// epsilon and horizon_buckets (regen_state 0, the default inverter).
func compileOpts(eps float64, buckets int, prebuild float64) regenrand.CompileOptions {
	opts := regenrand.DefaultOptions()
	if eps != 0 {
		opts.Epsilon = eps
	}
	return regenrand.CompileOptions{Options: opts, HorizonBuckets: buckets, PrebuildHorizon: prebuild}
}

// libModel is one library compile, on the server and mirrored in-process.
type libModel struct {
	name    string
	eps     float64
	buckets int
	id      string                   // server model id
	mirror  *regenrand.CompiledModel // same wire list, same options
}

type httpLib struct {
	wire    *wireModel
	model   *regenrand.CTMC // built from wire
	ua, thr []float64
	models  []*libModel // plain, bucketed, loose

	// traced runs only: a basis of the benchmark's own for the fresh-rewards
	// layer probe.
	basis *regen.Basis

	// The mirror's compile cache, at regenserve's default capacity, sees
	// the same model-carrying calls as the server's; regenserve exports no
	// compile-cache hit counter, so the hit ratio is taken here. A lookup
	// hits when it returns a model an earlier lookup returned.
	cache         *regenrand.CompileCache
	mu            sync.Mutex
	seen          map[*regenrand.CompiledModel]bool
	lookups, hits int
}

// noteLookup counts one compile-cache lookup of the mirror.
func (lib *httpLib) noteLookup(cm *regenrand.CompiledModel) {
	lib.mu.Lock()
	defer lib.mu.Unlock()
	lib.lookups++
	if lib.seen[cm] {
		lib.hits++
	}
	lib.seen[cm] = true
}

const (
	libPlain = iota
	libBucketed
	libLoose
)

func newHTTPLib() (*httpLib, error) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		return nil, err
	}
	lib := &httpLib{wire: toWire(m.Chain), ua: m.UnavailabilityRewards(), thr: m.ThroughputRewards(),
		cache: regenrand.NewCompileCache(64), seen: map[*regenrand.CompiledModel]bool{}}
	if lib.model, err = fromWire(lib.wire); err != nil {
		return nil, err
	}
	lib.models = []*libModel{
		{name: "plain", eps: 1e-12},
		{name: "bucketed", eps: 1e-12, buckets: 4},
		{name: "loose", eps: 1e-6},
	}
	return lib, nil
}

// primeQueries are the set-up queries that fill a library model's reward
// bindings for its fixed reward vectors at the prebuilt horizon.
func (lib *httpLib) primeQueries(k int) []wireQuery {
	h := []float64{httpHorizon}
	switch k {
	case libBucketed:
		return []wireQuery{{Measure: "TRR", Rewards: lib.ua, Times: h}, {Measure: "TRR", Rewards: lib.thr, Times: h}}
	case libLoose:
		return []wireQuery{{Measure: "TRR", Rewards: lib.ua, Times: h, Bounds: true, Inverter: regenrand.EulerInverter},
			{Measure: "MRR", Rewards: lib.thr, Times: h, Bounds: true, Inverter: regenrand.EulerInverter}}
	}
	return nil
}

// serverProc is a running regenserve subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

// startServer launches regenserve on a free loopback port and waits until
// it answers /healthz.
func startServer(ctx context.Context, bin string, hc *http.Client) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting regenserve: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("regenserve did not become healthy on %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *serverProc) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited server is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status after SIGTERM carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(httpStopGrace):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// post sends a JSON body and decodes a 200 response into out.
func post(ctx context.Context, hc *http.Client, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// varz scrapes the server's counters.
func varz(ctx context.Context, hc *http.Client, s *serverProc) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/varz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding /varz: %w", err)
	}
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// setupServer boots regenserve and compiles and primes the library.
func (lib *httpLib) setupServer(ctx context.Context, bin string, hc *http.Client) (*serverProc, error) {
	s, err := startServer(ctx, bin, hc)
	if err != nil {
		return nil, err
	}
	for k, m := range lib.models {
		body, err := json.Marshal(wireCompile{Model: lib.wire, Epsilon: m.eps, HorizonBuckets: m.buckets, PrebuildHorizon: httpHorizon, TimeoutMS: httpTimeoutMS})
		if err != nil {
			s.stop()
			return nil, err
		}
		var cr wireCompileResp
		if st, err := post(ctx, hc, s.base+"/v1/compile", body, &cr); err != nil || st != http.StatusOK {
			s.stop()
			return nil, fmt.Errorf("compiling library model %s: status %d: %v", m.name, st, err)
		}
		m.id = cr.ModelID
		if qs := lib.primeQueries(k); qs != nil {
			body, err := json.Marshal(wireQueryReq{ModelID: m.id, Queries: qs, TimeoutMS: httpTimeoutMS})
			if err != nil {
				s.stop()
				return nil, err
			}
			var qr wireQueryResp
			if st, err := post(ctx, hc, s.base+"/v1/query", body, &qr); err != nil || st != http.StatusOK {
				s.stop()
				return nil, fmt.Errorf("priming library model %s: status %d: %v", m.name, st, err)
			}
		}
	}
	return s, nil
}

// setupMirrors compiles and primes the in-process twins of the library.
func (lib *httpLib) setupMirrors(ctx context.Context) error {
	for k, m := range lib.models {
		cm, err := regenrand.CompileCtx(ctx, lib.model, compileOpts(m.eps, m.buckets, httpHorizon))
		if err != nil {
			return fmt.Errorf("mirror %s: %w", m.name, err)
		}
		m.mirror = cm
		if qs := lib.primeQueries(k); qs != nil {
			vals, bnds := splitQueries(qs)
			cm.QueryBatchCtx(ctx, vals)
			cm.QueryBoundsBatchCtx(ctx, bnds)
		}
	}
	return nil
}

// httpOp is one generated request (two for a band op: compile, then
// query).
type httpOp struct {
	i       int
	kind    byte
	lib     int        // library model of F, N and E ops
	band    *wireModel // B ops
	queries []wireQuery
	compile []byte // B ops: the /v1/compile body
	body    []byte // the /v1/query body

	// filled by the client
	resp   wireQueryResp
	lat    time.Duration
	ok     bool
	reason string        // why a failed op failed (see rowOutcome)
	local  *localAnswers // in-process answers (traced runs fill these inline)
}

// httpGen produces the op stream in order for both clients.
type httpGen struct {
	mu  sync.Mutex
	rng *rand.Rand
	lib *httpLib
	dig *streamDigest
	n   int
	mix []byte
}

func (g *httpGen) next() (*httpOp, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.n
	g.n++
	if i%len(httpMix) == 0 {
		g.mix = append([]byte(nil), httpMix...)
		g.rng.Shuffle(len(g.mix), func(a, b int) { g.mix[a], g.mix[b] = g.mix[b], g.mix[a] })
	}
	op := &httpOp{i: i, kind: g.mix[i%len(httpMix)]}
	rng, lib := g.rng, g.lib
	req := wireQueryReq{TimeoutMS: httpTimeoutMS}
	switch op.kind {
	case 'F': // fresh reward vector, TRR and MRR at 4 times
		op.lib = libPlain
		r := unitRewards(rng, lib.wire.States)
		ts := logTimes(rng, 4, 1, httpHorizon)
		op.queries = []wireQuery{{Measure: "TRR", Rewards: r, Times: ts}, {Measure: "MRR", Rewards: r, Times: ts}}
	case 'N': // 8 near-miss horizons in [t, 1.5t], bucketed compile; each
		// query also asks at half its horizon, which keeps the op's cost
		// near the fresh-rewards ops' so the median sits inside one cluster
		op.lib = libBucketed
		t := logUniform(rng, 20, httpHorizon/1.5)
		for k := 0; k < 8; k++ {
			r := lib.ua
			if k%2 == 1 {
				r = lib.thr
			}
			h := t * (1 + 0.5*rng.Float64())
			op.queries = append(op.queries, wireQuery{Measure: "TRR", Rewards: r, Times: []float64{h / 2, h}})
		}
	case 'E': // certified bounds with the Euler override, ε = 1e-6
		op.lib = libLoose
		ts := logTimes(rng, 4, 1, httpHorizon)
		op.queries = []wireQuery{
			{Measure: "TRR", Rewards: lib.ua, Times: ts, Bounds: true, Inverter: regenrand.EulerInverter},
			{Measure: "MRR", Rewards: lib.thr, Times: ts, Bounds: true, Inverter: regenrand.EulerInverter},
		}
	case 'B': // never-seen band model: compile, then one query on it
		seed := rng.Int63()
		mrng := rand.New(rand.NewSource(seed))
		c, err := ctmc.RandomBand(mrng, ctmc.BandOptions{States: httpBandStates})
		if err != nil {
			return nil, err
		}
		op.band = toWire(c)
		op.queries = []wireQuery{{Measure: "TRR", Rewards: unitRewards(mrng, c.N()), Times: logTimes(rng, 4, 10, 20)}}
		b, err := json.Marshal(wireCompile{Model: op.band, TimeoutMS: httpTimeoutMS})
		if err != nil {
			return nil, err
		}
		op.compile = b
		req.Model = op.band
	}
	if op.kind != 'B' {
		req.ModelID = lib.models[op.lib].id
	}
	req.Queries = op.queries
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	op.body = b
	g.dig.add(i, string(op.kind), string(op.compile), string(b))
	return op, nil
}

// issued reports how many ops the generator has handed out.
func (g *httpGen) issued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// send performs op's request(s) and classifies the outcome.
func send(ctx context.Context, hc *http.Client, s *serverProc, op *httpOp) error {
	t0 := time.Now()
	defer func() { op.lat = time.Since(t0) }()
	if op.compile != nil {
		var cr wireCompileResp
		st, err := post(ctx, hc, s.base+"/v1/compile", op.compile, &cr)
		if err != nil {
			return fmt.Errorf("op %d compile: %w", op.i, err)
		}
		if op.ok, op.reason = rowOutcome(st, "", false); !op.ok {
			return nil
		}
	}
	st, err := post(ctx, hc, s.base+"/v1/query", op.body, &op.resp)
	if err != nil {
		return fmt.Errorf("op %d query: %w", op.i, err)
	}
	op.ok, op.reason = rowOutcome(st, "", false)
	if op.ok && len(op.resp.Results) != len(op.queries) {
		op.ok, op.reason = false, "row_count"
	}
	for _, r := range op.resp.Results {
		if op.ok {
			op.ok, op.reason = rowOutcome(st, r.Error, r.Degraded)
		}
	}
	return nil
}

// localAnswers are the in-process answers to an op's request.
type localAnswers struct {
	cm     *regenrand.CompiledModel
	vals   []regenrand.QueryResult
	bounds []regenrand.BoundsResult
}

// splitQueries separates a request's value and bounds queries, in order,
// as the server does.
func splitQueries(qs []wireQuery) (vals, bnds []regenrand.Query) {
	for _, q := range qs {
		rq := regenrand.Query{Method: regenrand.Method(q.Method), Measure: regenrand.MeasureKind(q.Measure), Rewards: q.Rewards, Times: q.Times, Inverter: q.Inverter}
		if q.Bounds {
			bnds = append(bnds, rq)
		} else {
			vals = append(vals, rq)
		}
	}
	return vals, bnds
}

// replay answers op in-process: the library mirror, or for a band op a
// fresh compile of the same wire model under the server's options. It
// returns the time spent in the engine (compile + batches).
func (lib *httpLib) replay(ctx context.Context, tr *tracer, op *httpOp) (*localAnswers, time.Duration, error) {
	la := &localAnswers{}
	t0 := time.Now()
	if op.band != nil {
		// As the server does: the compile request, then the query carrying
		// the same model inline, each building it from the wire and
		// resolving it through the compile cache.
		sp := tr.begin("regenrand.compile", -1, -1)
		for k := 0; k < 2; k++ {
			model, err := fromWire(op.band)
			if err == nil {
				la.cm, err = lib.cache.CompileCtx(ctx, model, compileOpts(0, 0, 0))
			}
			if err != nil {
				tr.end(sp)
				return nil, 0, fmt.Errorf("op %d band mirror: %w", op.i, err)
			}
			lib.noteLookup(la.cm)
		}
		tr.end(sp)
	} else {
		la.cm = lib.models[op.lib].mirror
	}
	vals, bnds := splitQueries(op.queries)
	sp := tr.begin("regenrand.query_batch", -1, -1)
	if len(vals) > 0 {
		la.vals = la.cm.QueryBatchCtx(ctx, vals)
	}
	if len(bnds) > 0 {
		la.bounds = la.cm.QueryBoundsBatchCtx(ctx, bnds)
	}
	tr.end(sp)
	return la, time.Since(t0), nil
}

// singles answers op's queries one QueryCtx/QueryBoundsCtx call at a time
// on the same model, for the planner-gain ratio.
func singles(ctx context.Context, tr *tracer, cm *regenrand.CompiledModel, op *httpOp) time.Duration {
	sp := tr.begin("regenrand.query", -1, -1)
	defer tr.end(sp)
	t0 := time.Now()
	vals, bnds := splitQueries(op.queries)
	for _, q := range vals {
		_, _ = cm.QueryCtx(ctx, q) // answers are checked through the batch path
	}
	for _, q := range bnds {
		_, _ = cm.QueryBoundsCtx(ctx, q)
	}
	return time.Since(t0)
}

// probe re-answers a fresh-rewards op's first query layer by layer on the
// benchmark's own warmed retaining basis: the reward binding and its series
// (regen.bind), then the evaluator and inversion (rrl.invert). It returns
// the time inside the inversion call and the abscissae it used.
func (lib *httpLib) probe(ctx context.Context, tr *tracer, op *httpOp) (time.Duration, int, error) {
	root := tr.begin("probe", op.i, -1)
	defer tr.end(root)
	q := op.queries[0]
	sp := tr.begin("regen.bind", op.i, root)
	bd, err := lib.basis.Bind(q.Rewards)
	var s *regen.Series
	if err == nil {
		s, err = bd.SeriesForCtx(ctx, maxOf(q.Times))
	}
	tr.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("op %d bind probe: %w", op.i, err)
	}
	sp = tr.begin("rrl.invert", op.i, root)
	defer tr.end(sp)
	rho0 := func() float64 { return sparse.Dot(lib.model.Initial(), q.Rewards) }
	ev, err := rrl.NewEvaluator(s, rho0, lib.models[libPlain].eps, rrl.Config{}.Normalize())
	if err != nil {
		return 0, 0, fmt.Errorf("op %d invert probe: %w", op.i, err)
	}
	t0 := time.Now()
	res, err := ev.TRRCtx(ctx, q.Times)
	inv := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("op %d invert probe: %w", op.i, err)
	}
	abs := 0
	for _, r := range res {
		abs += r.Abscissae
	}
	return inv, abs, nil
}

// traceAcc accumulates one client's traced-run measurements.
type traceAcc struct {
	tr             *tracer
	wire           time.Duration
	wireOps        int
	batch, single  time.Duration
	maxQueued      float64
	abscissae, ans int
	inv            time.Duration // probe inversion calls
	invAbs         int           // abscissae of those calls
}

func runHTTP(ctx context.Context, cfg config) (*report, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("http_mix needs -server")
	}
	rep := &report{layers: newLayers()}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients, DisableCompression: true}, Timeout: 2 * httpTimeoutMS * time.Millisecond}
	defer hc.CloseIdleConnections()
	lib, err := newHTTPLib()
	if err != nil {
		return nil, err
	}
	var srv *serverProc
	defer func() { srv.stop() }()
	for k := 0; k < setupReps; k++ {
		srv.stop()
		srv = nil
		t0 := time.Now()
		s, err := lib.setupServer(ctx, cfg.server, hc)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, since(t0))
		srv = s
	}
	if err := lib.setupMirrors(ctx); err != nil {
		return nil, err
	}

	// Untraced phase.
	gen := &httpGen{rng: rngFor(cfg.seed, 1), lib: lib, dig: newStreamDigest()}
	phase := seconds(cfg.seconds)
	if cfg.trace {
		phase /= 2
	}
	ops, wall, err := lib.drive(ctx, hc, srv, gen, phase, nil)
	if err != nil {
		return nil, err
	}
	rep.wall = wall
	rep.hash = gen.dig.sum()
	failed := map[string]int{}
	for _, op := range ops {
		rep.lat = append(rep.lat, ms(op.lat))
		rep.kind = append(rep.kind, string(op.kind))
		rep.ops.record(op.ok)
		if !op.ok {
			failed[op.reason]++
		}
		if op.ok {
			for _, r := range op.resp.Results {
				rep.answers += len(r.Results)
			}
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "failed ops by reason: %v\n", failed)
	}
	after, err := varz(ctx, hc, srv)
	if err != nil {
		return nil, err
	}
	rep.retained = int64(after["cache_bytes"])

	var traced []*httpOp
	if cfg.trace {
		t0 := time.Now()
		acc := make([]*traceAcc, httpClients)
		for c := range acc {
			acc[c] = &traceAcc{tr: newTracer(t0)}
		}
		opts := regenrand.DefaultOptions()
		sp := acc[0].tr.begin("regen.build", -1, -1)
		lib.basis, err = regen.NewBasisMode(lib.model, 0, opts, regen.RetainFull)
		if err == nil {
			err = lib.basis.Prewarm(ctx, httpHorizon)
		}
		acc[0].tr.end(sp)
		if err != nil {
			return nil, err
		}
		tbefore, err := varz(ctx, hc, srv)
		if err != nil {
			return nil, err
		}
		tgen := &httpGen{rng: rngFor(cfg.seed, 2), lib: lib, dig: newStreamDigest()}
		traced, _, err = lib.drive(ctx, hc, srv, tgen, phase, acc)
		if err != nil {
			return nil, err
		}
		tafter, err := varz(ctx, hc, srv)
		if err != nil {
			return nil, err
		}
		rep.hash += " traced:" + tgen.dig.sum()
		var tot traceAcc
		var trs []*tracer
		for _, a := range acc {
			trs = append(trs, a.tr)
			tot.wire += a.wire
			tot.wireOps += a.wireOps
			tot.batch += a.batch
			tot.single += a.single
			tot.maxQueued = max(tot.maxQueued, a.maxQueued)
			tot.inv += a.inv
			tot.invAbs += a.invAbs
		}
		for _, op := range traced {
			rep.traceLat = append(rep.traceLat, ms(op.lat))
			rep.ops.record(op.ok)
			if op.i < countOps && op.ok {
				for j, r := range op.resp.Results {
					if op.queries[j].Bounds {
						continue // bounds rows do not report abscissae
					}
					for _, row := range r.Results {
						tot.abscissae += row.Abscissae
						tot.ans++
					}
				}
			}
		}
		rep.spans = mergeSpans(trs...)
		n := len(traced)
		self := selfTimes(rep.spans)
		rep.layers["regen.bind_ms"] = layerMS(self, "regen.bind", n)
		rep.layers["rrl.invert_ms"] = layerMS(self, "rrl.invert", n)
		rep.layers["rrl.abscissae_per_answer"] = float64(tot.abscissae) / float64(max(tot.ans, 1))
		rep.layers["rrl.ns_per_abscissa"] = float64(tot.inv.Nanoseconds()) / float64(max(tot.invAbs, 1))
		rep.layers["regenserve.wire_ms"] = ms(tot.wire) / float64(max(tot.wireOps, 1))
		rep.layers["regenrand.plan_gain"] = float64(tot.single) / float64(max(tot.batch, 1))
		rep.layers["regenserve.queued"] = tot.maxQueued
		d := func(k string) float64 { return tafter[k] - tbefore[k] }
		rep.layers["regenserve.shed"] = d("shed")
		rep.layers["regenserve.timeouts"] = d("timeouts")
		hits, misses := d("series_cache_hits"), d("series_cache_misses")
		rep.layers["regen.series_hit_frac"] = hits / max(hits+misses, 1)
		rep.layers["regen.extension_steps_saved"] = d("series_extension_steps_saved") / float64(max(n, 1))
		rep.layers["cache.compile_hit_frac"] = float64(lib.hits) / float64(max(lib.lookups, 1))
	}
	if err := lib.check(ctx, &rep.g, append(ops, traced...), rngFor(cfg.seed, 3)); err != nil {
		return nil, err
	}
	return rep, nil
}

// drive runs the closed loop from httpClients goroutines until the phase
// ends and at least countOps ops were issued. With acc (traced runs) each
// client also replays its op in-process right after the round trip.
func (lib *httpLib) drive(ctx context.Context, hc *http.Client, srv *serverProc, gen *httpGen, phase time.Duration, acc []*traceAcc) ([]*httpOp, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(phase)
	var mu sync.Mutex
	var ops []*httpOp
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			for time.Now().Before(deadline) || gen.issued() < countOps {
				op, err := gen.next()
				if err != nil {
					fail(err)
					return
				}
				var tr *tracer
				if acc != nil {
					tr = acc[c].tr
				}
				sp := tr.begin("regenserve.http", op.i, -1)
				err = send(ctx, hc, srv, op)
				tr.end(sp)
				if err != nil {
					fail(err)
					return
				}
				if acc != nil {
					if err := lib.traceOp(ctx, hc, srv, acc[c], op); err != nil {
						fail(err)
						return
					}
				}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops, time.Since(start), firstErr
}

// traceOp does a traced client's work after a round trip: the in-process
// replay (for the wire-time split and the gate), the one-call-per-query
// counterpart (for the planner gain, alternating which runs first), the
// layer probe of fresh-rewards ops, and a periodic /varz scrape.
func (lib *httpLib) traceOp(ctx context.Context, hc *http.Client, srv *serverProc, a *traceAcc, op *httpOp) error {
	var inproc time.Duration
	var err error
	var cm *regenrand.CompiledModel
	if op.band == nil {
		cm = lib.models[op.lib].mirror
	}
	var single time.Duration
	if op.i%2 == 1 && cm != nil {
		single = singles(ctx, a.tr, cm, op)
	}
	op.local, inproc, err = lib.replay(ctx, a.tr, op)
	if err != nil {
		return err
	}
	if op.i%2 == 0 && cm != nil {
		single = singles(ctx, a.tr, cm, op)
	}
	if op.i%2 == 0 && op.ok {
		// Batch first: the mirror was exactly as warm as the server.
		a.wire += op.lat - inproc
		a.wireOps++
	}
	if cm != nil {
		a.single += single
		a.batch += inproc
	}
	if op.kind == 'F' {
		inv, abs, err := lib.probe(ctx, a.tr, op)
		if err != nil {
			return err
		}
		a.inv += inv
		a.invAbs += abs
	}
	if op.i%16 == 0 {
		v, err := varz(ctx, hc, srv)
		if err != nil {
			return err
		}
		a.maxQueued = max(a.maxQueued, v["queued_queries"]+v["queued_compiles"])
	}
	return nil
}

// check is the http_mix output gate: every served row bitwise equal to the
// in-process answer of the same request, every value in range, every
// bounds row enclosing its value, and on a seeded sample an independent
// reference — SR for t ≤ 100, RSD beyond, Durbin@1e-12 for Euler@1e-6.
func (lib *httpLib) check(ctx context.Context, g *gate, ops []*httpOp, rng *rand.Rand) error {
	sampled := map[int]bool{}
	for _, k := range rng.Perm(countOps)[:12] {
		sampled[k] = true
	}
	for _, op := range ops {
		if !op.ok {
			continue // counted as failed by the tally
		}
		if op.local == nil {
			la, _, err := lib.replay(ctx, nil, op)
			if err != nil {
				return err
			}
			op.local = la
		}
		eps := regenrand.DefaultOptions().Epsilon
		if op.band == nil {
			eps = lib.models[op.lib].eps
		}
		vi, bi := 0, 0
		for j, q := range op.queries {
			row := op.resp.Results[j]
			where := fmt.Sprintf("http op %d (%c) q%d", op.i, op.kind, j)
			var local []core.Result
			var lb []core.Bounds
			if q.Bounds {
				br := op.local.bounds[bi]
				bi++
				if br.Err != nil {
					g.fail("%s: in-process bounds error %v", where, br.Err)
					continue
				}
				lb = br.Bounds
			} else {
				vr := op.local.vals[vi]
				vi++
				if vr.Err != nil {
					g.fail("%s: in-process error %v", where, vr.Err)
					continue
				}
				local = vr.Results
			}
			if len(row.Results) != len(q.Times) || (local != nil && len(local) != len(q.Times)) || (q.Bounds && len(lb) != len(q.Times)) {
				g.fail("%s: %d served rows, %d times", where, len(row.Results), len(q.Times))
				continue
			}
			for k, r := range row.Results {
				at := fmt.Sprintf("%s t=%v", where, r.T)
				if q.Bounds {
					if r.Lower == nil || r.Upper == nil {
						g.fail("%s: bounds row without lower/upper", at)
						continue
					}
					// The row's value is the enclosure midpoint, which is not
					// itself certified within ε; the lower bound is, by
					// construction, a value in [0, rmax].
					g.value(at+" lower", *r.Lower, maxOf(q.Rewards), eps)
					g.bounds(at, *r.Lower, r.Value, *r.Upper, eps)
					g.bitwise(at+" lower", *r.Lower, lb[k].Lower)
					g.bitwise(at+" upper", *r.Upper, lb[k].Upper)
					g.bitwise(at+" mid", r.Value, (lb[k].Lower+lb[k].Upper)/2)
				} else {
					g.value(at, r.Value, maxOf(q.Rewards), eps)
					g.bitwise(at, r.Value, local[k].Value)
				}
			}
		}
		if op.i < countOps && sampled[op.i] {
			if err := lib.reference(ctx, g, op, eps); err != nil {
				return err
			}
		}
	}
	return nil
}

// reference checks one sampled op's first query against solvers that
// share no Laplace code with RRL (independentRefs; the RAID and band models
// are both irreducible), and Euler rows against Durbin@1e-12. A
// value row must agree within the two ε; a bounds row must enclose the
// reference up to the reference's ε.
func (lib *httpLib) reference(ctx context.Context, g *gate, op *httpOp, eps float64) error {
	q := op.queries[0]
	rows := op.resp.Results[0].Results
	where := fmt.Sprintf("http op %d (%c) reference", op.i, op.kind)
	compare := func(at string, k int, ref, refEps float64) {
		if r := rows[k]; r.Lower != nil && r.Upper != nil {
			g.bounds(at, *r.Lower, ref, *r.Upper, refEps)
		} else {
			g.reference(at, r.Value, ref, eps, refEps)
		}
	}
	if q.Inverter == regenrand.EulerInverter {
		durbin := lib.models[libPlain]
		ref, err := durbin.mirror.QueryCtx(ctx, regenrand.Query{Measure: regenrand.MeasureKind(q.Measure), Rewards: q.Rewards, Times: q.Times})
		if err != nil {
			return fmt.Errorf("durbin reference: %w", err)
		}
		for k, r := range ref {
			compare(fmt.Sprintf("%s durbin t=%v", where, r.T), k, r.Value, durbin.eps)
		}
	}
	cm := op.local.cm
	refs, err := independentRefs(ctx, cm, regenrand.Query{Measure: regenrand.MeasureKind(q.Measure), Rewards: q.Rewards, Times: q.Times}, true)
	if err != nil {
		return err
	}
	for k, ref := range refs {
		if !math.IsNaN(ref) {
			compare(fmt.Sprintf("%s independent t=%v", where, q.Times[k]), k, ref, cm.Options().Epsilon)
		}
	}
	return nil
}
