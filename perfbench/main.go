// Command perfbench is the repository benchmark. It generates seeded inputs,
// runs one workload in closed loop for a fixed time, checks every answer
// against the engine's certified error bounds, and prints one JSON result
// line with the end-to-end metrics (-trace 0) or the per-layer metrics of a
// separate traced run (-trace 1). See README.md for the workloads and the
// metric definitions; run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload warm_rrl --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"regenrand"
)

// countOps is the fixed prefix of every traced op stream over which the
// exact per-layer counts (abscissae per answer, steps per op) and the
// stream hash are taken, so they repeat bit for bit under one seed whatever
// the machine's speed. Each phase runs at least this many ops.
const countOps = 48

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // path of the regenserve binary
	out      string // directory for span files
}

// report is what a workload run hands back to main.
type report struct {
	setup    []float64 // seconds per set-up repetition
	lat      []float64 // ms per untraced timed op
	kind     []string  // request kind of each untraced timed op
	traceLat []float64 // ms per traced op (trace runs only)
	answers  int       // time points answered in the untraced timed phase
	wall     time.Duration
	ops      tally
	retained int64 // bytes held by compiled artifacts at the end
	hash     string
	g        gate
	layers   map[string]float64 // per-layer metrics (trace runs only)
	spans    []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"warm_rrl":     runWarm,
	"cold_compile": runCold,
	"http_mix":     runHTTP,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: warm_rrl, cold_compile or http_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "regenserve binary (http_mix)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish prints the human-readable summary to stderr and assembles the
// result line.
func finish(cfg config, rep *report) (result, error) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s seed %d: stream sha256(first %d ops) %s\n", cfg.workload, cfg.seed, countOps, rep.hash)
	rep.g.report(w)
	res := result{Correct: rep.g.ok(), Attempted: rep.ops.attempted, Failed: rep.ops.failed, Metrics: map[string]metric{}}
	if rep.ops.attempted == 0 {
		return res, fmt.Errorf("no operation ran")
	}
	if !cfg.trace {
		n := len(rep.lat)
		fmt.Fprintf(w, "ops %d (failed %d), %d beyond p95, answers %d in %.2fs, setup reps %v\n",
			n, rep.ops.failed, beyond(rep.lat, 95), rep.answers, rep.wall.Seconds(), rep.setup)
		printKinds(w, rep.kind, rep.lat)
		res.Metrics["setup_s"] = metric{percentile(rep.setup, 50), "s"}
		res.Metrics["latency_p50_ms"] = metric{percentile(rep.lat, 50), "ms"}
		res.Metrics["latency_p95_ms"] = metric{percentile(rep.lat, 95), "ms"}
		res.Metrics["answers_per_s"] = metric{float64(rep.answers) / rep.wall.Seconds(), "1/s"}
		res.Metrics["ok_frac"] = metric{rep.ops.okFrac(), "ratio"}
		res.Metrics["retained_mib"] = metric{float64(rep.retained) / (1 << 20), "MiB"}
		return res, nil
	}
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeSpans(path, rep.spans); err != nil {
		return res, err
	}
	traced := len(rep.traceLat)
	fmt.Fprintf(w, "traced ops %d, spans %d written to %s\n", traced, len(rep.spans), path)
	printSelfTable(w, selfTimes(rep.spans), traced)
	rep.layers["trace.overhead_ms"] = percentile(rep.traceLat, 50) - percentile(rep.lat, 50)
	names := make([]string, 0, len(rep.layers))
	for n := range rep.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.layers[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "  %-32s %.6g\n", n, v)
		res.Metrics[n] = metric{v, layerUnits[n]}
	}
	return res, nil
}

// layerUnits lists every per-layer metric a traced run reports. A workload
// that never calls a layer reports 0 for it.
var layerUnits = map[string]string{
	"rrl.invert_ms":               "ms",
	"rrl.abscissae_per_answer":    "count",
	"rrl.ns_per_abscissa":         "ns",
	"regen.build_ms":              "ms",
	"sparse.steps_per_op":         "count",
	"sparse.step_us":              "us",
	"regenrand.compile_ms":        "ms",
	"regen.bind_ms":               "ms",
	"regen.series_hit_frac":       "ratio",
	"regen.extension_steps_saved": "count",
	"regenrand.plan_gain":         "ratio",
	"cache.compile_hit_frac":      "ratio",
	"regenserve.wire_ms":          "ms",
	"regenserve.queued":           "count",
	"regenserve.shed":             "count",
	"regenserve.timeouts":         "count",
	"trace.overhead_ms":           "ms",
}

// newLayers returns a per-layer metric map with every metric at 0.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for n := range layerUnits {
		m[n] = 0
	}
	return m
}

// layerMS is a layer's self time per traced op, in ms.
func layerMS(self map[string]time.Duration, name string, ops int) float64 {
	return ms(self[name]) / float64(max(ops, 1))
}

// printKinds writes the op count and latency percentiles of each request
// kind.
func printKinds(w io.Writer, kinds []string, lat []float64) {
	by := map[string][]float64{}
	var names []string
	for i, k := range kinds {
		if by[k] == nil {
			names = append(names, k)
		}
		by[k] = append(by[k], lat[i])
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  kind %-9s %5d ops, p50 %.2f ms, p95 %.2f ms\n", k, len(by[k]), percentile(by[k], 50), percentile(by[k], 95))
	}
}

// since is the time elapsed since t, in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// seconds converts a flag value in seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// engineLayers fills the series-sharing metrics from in-process engine
// counter deltas over the run's timed phases.
func engineLayers(layers map[string]float64, before, after regenrand.EngineStats, ops int) {
	hits := after.SeriesCacheHits - before.SeriesCacheHits
	misses := after.SeriesCacheMisses - before.SeriesCacheMisses
	layers["regen.series_hit_frac"] = float64(hits) / float64(max(hits+misses, 1))
	layers["regen.extension_steps_saved"] = float64(after.ExtensionStepsSaved-before.ExtensionStepsSaved) / float64(max(ops, 1))
}

// closedLoop runs op(i) for i = 0, 1, … until the deadline has passed and
// at least minOps ops ran, and returns the number of ops. op returns an
// error only for a fault of the benchmark itself.
func closedLoop(deadline time.Time, minOps int, op func(i int) error) (int, error) {
	i := 0
	for ; time.Now().Before(deadline) || i < minOps; i++ {
		if err := op(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// rngFor derives an independent generator for one purpose from the seed.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// logUniform draws from [lo, hi] uniformly on a log scale.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// logTimes draws n log-uniform time points in [lo, hi].
func logTimes(rng *rand.Rand, n int, lo, hi float64) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = logUniform(rng, lo, hi)
	}
	return ts
}

// unitRewards draws a fresh reward vector with entries in [0, 1) and one
// entry pinned to 1, so every fresh vector has rmax = 1.
func unitRewards(rng *rand.Rand, n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.Float64()
	}
	r[rng.Intn(n)] = 1
	return r
}

func maxOf(ts []float64) float64 {
	m := ts[0]
	for _, t := range ts[1:] {
		m = math.Max(m, t)
	}
	return m
}

// streamDigest hashes the first countOps ops of a request stream.
type streamDigest struct {
	h hash.Hash
	n int
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

// add hashes one op's description, in op order, while inside the prefix.
func (d *streamDigest) add(i int, desc ...any) {
	if i != d.n || d.n >= countOps {
		return
	}
	fmt.Fprintln(d.h, desc...)
	d.n++
}

func (d *streamDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
