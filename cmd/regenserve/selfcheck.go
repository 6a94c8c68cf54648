package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"regenrand"
	"regenrand/internal/cache"
	"regenrand/internal/faultpoint"
	"regenrand/internal/laplace"
	"regenrand/internal/regen"
	"regenrand/internal/store"
	"regenrand/internal/store/objstore"
	"regenrand/internal/store/objstore/testserver"
)

// sameRow compares two result rows by value (the bounds edges are pointers,
// so struct equality would compare identities).
func sameRow(a, b resultJSON) bool {
	if a.T != b.T || a.Value != b.Value || a.Steps != b.Steps || a.Abscissae != b.Abscissae {
		return false
	}
	if (a.Lower == nil) != (b.Lower == nil) || (a.Upper == nil) != (b.Upper == nil) {
		return false
	}
	if a.Lower != nil && (*a.Lower != *b.Lower || *a.Upper != *b.Upper) {
		return false
	}
	return true
}

// checkClient drives the live HTTP surface of one selfcheck server.
type checkClient struct {
	base string
}

func (c *checkClient) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(r.Body).Decode(&e)
		return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, e["error"])
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// postRaw sends a raw JSON body and returns status + error message.
func (c *checkClient) postRaw(path, body string) (int, string, error) {
	r, err := http.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer r.Body.Close()
	var e map[string]string
	_ = json.NewDecoder(r.Body).Decode(&e)
	return r.StatusCode, e["error"], nil
}

func (c *checkClient) get(path string) (int, map[string]any, error) {
	r, err := http.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(r.Body).Decode(&m)
	return r.StatusCode, m, nil
}

// runSelfcheck exercises the live HTTP surface: compile a small RAID
// availability model, hit it with concurrent batch queries across methods,
// check the answers agree within the error bound, and round-trip the
// validation, observability, and drain behavior. With chaos, it then
// injects faults at the engine's fault points and asserts the server stays
// live, bad rows fail cleanly, and recovered answers are bitwise-identical
// to the quiet run.
func runSelfcheck(srv *server, mux *http.ServeMux, chaos bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	defer hs.Close()
	c := &checkClient{base: "http://" + ln.Addr().String()}

	// A 2-parity-group RAID availability model, built via the public API
	// and re-encoded to the wire format.
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(2), false)
	if err != nil {
		return err
	}
	model := &modelJSON{States: rm.Chain.N()}
	for _, tr := range rm.Chain.Transitions() {
		model.Transitions = append(model.Transitions, []float64{float64(tr.Row), float64(tr.Col), tr.Val})
	}
	init := rm.Chain.Initial()
	for i, p := range init {
		if p > 0 {
			model.Initial = append(model.Initial, []float64{float64(i), p})
		}
	}

	var comp compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model}, &comp); err != nil {
		return err
	}
	if comp.States != rm.Chain.N() {
		return fmt.Errorf("compile reported %d states, want %d", comp.States, rm.Chain.N())
	}
	if comp.RetainedBytes <= 0 {
		return fmt.Errorf("compile reported retained_bytes %d, want > 0", comp.RetainedBytes)
	}

	rewards := rm.UnavailabilityRewards()
	times := []float64{1, 10, 100}
	queries := []queryJSON{
		{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times},
		{Method: "SR", Measure: "TRR", Rewards: rewards, Times: times},
		{Method: "RR", Measure: "MRR", Rewards: rewards, Times: times},
		{Method: "RRL", Measure: "MRR", Rewards: rewards, Times: times},
		{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times, Bounds: true},
	}

	// Many concurrent clients sharing the one compiled model.
	const clients = 8
	responses := make([]queryResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: queries}, &responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	for i, resp := range responses {
		if len(resp.Results) != len(queries) {
			return fmt.Errorf("client %d: %d results, want %d", i, len(resp.Results), len(queries))
		}
		for qi, qr := range resp.Results {
			if qr.Error != "" {
				return fmt.Errorf("client %d query %d: %s", i, qi, qr.Error)
			}
			if len(qr.Results) != len(times) {
				return fmt.Errorf("client %d query %d: %d values", i, qi, len(qr.Results))
			}
		}
		// RRL and SR must agree on TRR within the combined error bound.
		for j := range times {
			a, b := resp.Results[0].Results[j].Value, resp.Results[1].Results[j].Value
			if math.Abs(a-b) > 1e-9 {
				return fmt.Errorf("client %d: RRL %v vs SR %v at t=%v", i, a, b, times[j])
			}
		}
		// The certified enclosures must carry both edges and contain the SR
		// values.
		for j := range times {
			row := resp.Results[4].Results[j]
			if row.Lower == nil || row.Upper == nil {
				return fmt.Errorf("client %d: bounds row %d missing lower/upper", i, j)
			}
			if sr := resp.Results[1].Results[j].Value; sr < *row.Lower-1e-9 || sr > *row.Upper+1e-9 {
				return fmt.Errorf("client %d: SR %v outside bounds [%v, %v] at t=%v",
					i, sr, *row.Lower, *row.Upper, times[j])
			}
		}
		// All clients must see bitwise-identical answers.
		for qi := range resp.Results {
			for j := range resp.Results[qi].Results {
				if !sameRow(resp.Results[qi].Results[j], responses[0].Results[qi].Results[j]) {
					return fmt.Errorf("client %d disagrees with client 0 on query %d", i, qi)
				}
			}
		}
	}
	fmt.Printf("regenserve selfcheck: %d clients × %d queries × %d times on a %d-state model in %v\n",
		clients, len(queries), len(times), comp.States, time.Since(start).Round(time.Millisecond))

	// baseline re-issues the reference batch; the chaos rounds use it to
	// prove recovery is bitwise-clean.
	baseline := func(tag string) error {
		var resp queryResponse
		if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: queries}, &resp); err != nil {
			return fmt.Errorf("%s: baseline: %w", tag, err)
		}
		for qi := range resp.Results {
			if resp.Results[qi].Error != "" {
				return fmt.Errorf("%s: baseline query %d: %s", tag, qi, resp.Results[qi].Error)
			}
			for j := range resp.Results[qi].Results {
				if !sameRow(resp.Results[qi].Results[j], responses[0].Results[qi].Results[j]) {
					return fmt.Errorf("%s: baseline query %d row %d differs from the quiet run", tag, qi, j)
				}
			}
		}
		return nil
	}

	// Grouped-batch planning: a multi-measure same-horizon batch (plus a
	// byte-identical duplicate) must return rows bitwise-identical to
	// one-query-per-request traffic — the planner changes throughput, never
	// results.
	var grouped []queryJSON
	for mi := 0; mi < 6; mi++ {
		salt := mi
		rw := regenrand.RewardsFrom(rm.Chain.N(), func(i int) float64 {
			return float64(((i+salt)*2654435761)%(1<<20)) / float64(1<<20-1)
		})
		grouped = append(grouped, queryJSON{Method: "RRL", Measure: "TRR", Rewards: rw, Times: times})
	}
	grouped = append(grouped, grouped[0])
	var groupedResp queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: grouped}, &groupedResp); err != nil {
		return err
	}
	if len(groupedResp.Results) != len(grouped) {
		return fmt.Errorf("grouped batch: %d results, want %d", len(groupedResp.Results), len(grouped))
	}
	for i, q := range grouped {
		if groupedResp.Results[i].Error != "" {
			return fmt.Errorf("grouped batch query %d: %s", i, groupedResp.Results[i].Error)
		}
		var single queryResponse
		if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: []queryJSON{q}}, &single); err != nil {
			return err
		}
		if single.Results[0].Error != "" {
			return fmt.Errorf("serial query %d: %s", i, single.Results[0].Error)
		}
		for j := range single.Results[0].Results {
			if !sameRow(groupedResp.Results[i].Results[j], single.Results[0].Results[j]) {
				return fmt.Errorf("grouped batch query %d row %d differs from the serial response", i, j)
			}
		}
	}
	fmt.Printf("regenserve selfcheck: grouped %d-query batch == one-query-per-request traffic\n", len(grouped))

	// Compact retention end to end: compile with "compact", query, and
	// check the answers stay within the (loosened) error budget of SR.
	var compactComp compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, Epsilon: 1e-6, Compact: true}, &compactComp); err != nil {
		return err
	}
	if compactComp.ModelID == comp.ModelID {
		return fmt.Errorf("compact compile shares the full-retention model id")
	}
	var compactResp queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: compactComp.ModelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times}},
	}, &compactResp); err != nil {
		return err
	}
	if compactResp.Results[0].Error != "" {
		return fmt.Errorf("compact query: %s", compactResp.Results[0].Error)
	}
	for j := range times {
		a := compactResp.Results[0].Results[j].Value
		b := responses[0].Results[1].Results[j].Value // SR reference
		if math.Abs(a-b) > 2e-6 {
			return fmt.Errorf("compact RRL %v vs SR %v at t=%v", a, b, times[j])
		}
	}

	// Prebuild warmup must not change the content key or the answers.
	var warmComp compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, PrebuildHorizon: 100}, &warmComp); err != nil {
		return err
	}
	if warmComp.ModelID != comp.ModelID {
		return fmt.Errorf("prebuild compile changed the model id: %s vs %s", warmComp.ModelID, comp.ModelID)
	}

	if err := checkInverter(c, comp.ModelID, model, rewards, times); err != nil {
		return err
	}
	if err := checkBucketing(c, comp.ModelID, model, rewards); err != nil {
		return err
	}
	if err := checkObservability(c, srv); err != nil {
		return err
	}

	if chaos {
		if err := runChaos(c, srv, comp.ModelID, model, rewards, baseline); err != nil {
			return err
		}
	}
	return nil
}

// checkInverter round-trips the pluggable-inversion wire contract: an
// "inverter": "euler" compile gets its own model id, euler and durbin
// answers agree within the combined certified budgets, every RRL row
// discloses the backend that served it, a per-query override on a durbin
// compile answers bitwise-identically to the euler compile (same series,
// same epsilon — only the inversion backend differs), euler's certified
// roundoff floor rejects the default tight epsilon with a clean per-row
// error, and an unknown backend name answers 400 at the trust boundary.
func checkInverter(c *checkClient, exactID string, model *modelJSON, rewards []float64, times []float64) error {
	// The default-epsilon (1e-12) compile accepts "euler" — backend validity
	// is a compile-time property, the roundoff-floor check is per inversion.
	var tight compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, Inverter: "euler"}, &tight); err != nil {
		return fmt.Errorf("euler tight compile: %w", err)
	}
	if tight.ModelID == exactID {
		return fmt.Errorf("euler compile shares the durbin model id")
	}
	var tr queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: tight.ModelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times}},
	}, &tr); err != nil {
		return fmt.Errorf("euler tight query: %w", err)
	}
	if !strings.Contains(tr.Results[0].Error, "cannot meet tolerance") {
		return fmt.Errorf("euler at epsilon 1e-12: row error %q, want the certified budget rejection", tr.Results[0].Error)
	}

	// At a loose epsilon both backends answer; their certified enclosures
	// both contain the truth, so the values agree within the combined budget.
	var du, eu compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, Epsilon: 1e-6, Inverter: "durbin"}, &du); err != nil {
		return fmt.Errorf("durbin loose compile: %w", err)
	}
	if err := c.post("/v1/compile", compileRequest{Model: model, Epsilon: 1e-6, Inverter: "euler"}, &eu); err != nil {
		return fmt.Errorf("euler loose compile: %w", err)
	}
	if du.ModelID == eu.ModelID {
		return fmt.Errorf("durbin and euler compiles share one model id")
	}
	ask := []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times}}
	var dresp, eresp queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: du.ModelID, Queries: ask}, &dresp); err != nil {
		return fmt.Errorf("durbin loose query: %w", err)
	}
	if err := c.post("/v1/query", queryRequest{ModelID: eu.ModelID, Queries: ask}, &eresp); err != nil {
		return fmt.Errorf("euler loose query: %w", err)
	}
	if dresp.Results[0].Error != "" || eresp.Results[0].Error != "" {
		return fmt.Errorf("loose inverter round: durbin %q, euler %q", dresp.Results[0].Error, eresp.Results[0].Error)
	}
	if got := dresp.Results[0].Inverter; got != "durbin" {
		return fmt.Errorf("durbin row discloses inverter %q, want durbin", got)
	}
	if got := eresp.Results[0].Inverter; got != "euler" {
		return fmt.Errorf("euler row discloses inverter %q, want euler", got)
	}
	for j := range times {
		d, e := dresp.Results[0].Results[j].Value, eresp.Results[0].Results[j].Value
		if math.Abs(d-e) > 2e-6 {
			return fmt.Errorf("cross-backend disagreement at t=%v: durbin %v vs euler %v", times[j], d, e)
		}
	}

	// A per-query override on the durbin compile runs the euler evaluator
	// over the same retained series at the same epsilon — bitwise-identical
	// to the euler compile's own answers.
	var oresp queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: du.ModelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times, Inverter: "euler"}},
	}, &oresp); err != nil {
		return fmt.Errorf("per-query euler override: %w", err)
	}
	if oresp.Results[0].Error != "" {
		return fmt.Errorf("per-query euler override: %s", oresp.Results[0].Error)
	}
	if got := oresp.Results[0].Inverter; got != "euler" {
		return fmt.Errorf("override row discloses inverter %q, want euler", got)
	}
	for j := range times {
		if !sameRow(oresp.Results[0].Results[j], eresp.Results[0].Results[j]) {
			return fmt.Errorf("per-query euler override row %d differs from the euler compile's answer", j)
		}
	}

	// Unknown backend names reject at the trust boundary: 400 on compile,
	// a per-row error on a query-level override.
	status, msg, err := c.postRaw("/v1/compile", mustJSON(compileRequest{Model: model, Inverter: "talbot"}))
	if err != nil {
		return err
	}
	if status != http.StatusBadRequest || !strings.Contains(msg, "talbot") {
		return fmt.Errorf("unknown inverter compile: HTTP %d %q, want 400 naming the backend", status, msg)
	}
	var bad queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: du.ModelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times, Inverter: "talbot"}},
	}, &bad); err != nil {
		return fmt.Errorf("unknown inverter query: %w", err)
	}
	if !strings.Contains(bad.Results[0].Error, "talbot") {
		return fmt.Errorf("unknown inverter query: row error %q, want it to name the backend", bad.Results[0].Error)
	}
	fmt.Println("regenserve selfcheck: inversion backends OK (separate model ids, cross-backend agreement, per-row disclosure, override bitwise, budget + name rejections)")
	return nil
}

// checkBucketing compiles the model with horizon bucketing enabled and
// round-trips the bucketed-traffic contract: near-miss horizons collapse
// onto one grid point (disclosed per row as "bucketed_horizon"), the
// bucketed answers agree with the exact-horizon answers within the error
// budget (bucketing deepens the truncation — it never loosens the
// certificate), and the series-sharing counters move: the shared bucket
// costs one construction with the other rows served as cache hits, and a
// deeper bucket afterwards extends the same chains in place.
func checkBucketing(c *checkClient, exactID string, model *modelJSON, rewards []float64) error {
	var bcomp compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, HorizonBuckets: 4}, &bcomp); err != nil {
		return fmt.Errorf("bucketed compile: %w", err)
	}
	if bcomp.ModelID == exactID {
		return fmt.Errorf("bucketed compile shares the exact-horizon model id")
	}

	// Near-miss horizons: every row lands in the (56.2, 100] cell of the
	// 4-points-per-decade grid, so one series at horizon 100 serves them all.
	horizons := []float64{60, 82, 95}
	var bq []queryJSON
	for _, t := range horizons {
		bq = append(bq, queryJSON{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{t}})
	}
	bq = append(bq, queryJSON{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{88}, Bounds: true})

	_, v0, err := c.get("/varz")
	if err != nil {
		return err
	}
	var bresp queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: bcomp.ModelID, Queries: bq}, &bresp); err != nil {
		return fmt.Errorf("bucketed query: %w", err)
	}
	// The exact-horizon reference answers come from the unbucketed compile.
	var eresp queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: exactID, Queries: bq}, &eresp); err != nil {
		return fmt.Errorf("exact-horizon reference: %w", err)
	}
	for i := range bq {
		br, er := bresp.Results[i], eresp.Results[i]
		if br.Error != "" || er.Error != "" {
			return fmt.Errorf("bucketed round query %d: bucketed %q, exact %q", i, br.Error, er.Error)
		}
		if br.BucketedHorizon != 100 {
			return fmt.Errorf("bucketed round query %d: bucketed_horizon %v, want 100", i, br.BucketedHorizon)
		}
		if er.BucketedHorizon != 0 {
			return fmt.Errorf("exact-horizon model disclosed bucketed_horizon %v", er.BucketedHorizon)
		}
		for j := range br.Results {
			b, e := br.Results[j], er.Results[j]
			if math.Abs(b.Value-e.Value) > 1e-9 {
				return fmt.Errorf("bucketed round query %d row %d: bucketed %v vs exact %v", i, j, b.Value, e.Value)
			}
			if b.Lower != nil && (e.Value < *b.Lower-1e-9 || e.Value > *b.Upper+1e-9) {
				return fmt.Errorf("bucketed round query %d row %d: exact %v outside bucketed bounds [%v, %v]",
					i, j, e.Value, *b.Lower, *b.Upper)
			}
		}
	}
	_, v1, err := c.get("/varz")
	if err != nil {
		return err
	}
	if d := v1["series_cache_misses"].(float64) - v0["series_cache_misses"].(float64); d < 1 {
		return fmt.Errorf("bucketed round: series_cache_misses moved by %v, want >= 1", d)
	}
	if d := v1["series_cache_hits"].(float64) - v0["series_cache_hits"].(float64); d < 3 {
		return fmt.Errorf("bucketed round: series_cache_hits moved by %v, want >= 3 (four rows share one bucket)", d)
	}

	// A horizon in the next grid cell must extend the already-stepped chains
	// in place — steps 0..K(100) are reused, never recomputed.
	var dresp queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: bcomp.ModelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{150}}},
	}, &dresp); err != nil {
		return fmt.Errorf("bucketed deeper query: %w", err)
	}
	if dresp.Results[0].Error != "" {
		return fmt.Errorf("bucketed deeper query: %s", dresp.Results[0].Error)
	}
	_, v2, err := c.get("/varz")
	if err != nil {
		return err
	}
	if d := v2["series_extensions"].(float64) - v1["series_extensions"].(float64); d < 1 {
		return fmt.Errorf("bucketed deeper query: series_extensions moved by %v, want >= 1", d)
	}
	if d := v2["series_extension_steps_saved"].(float64) - v1["series_extension_steps_saved"].(float64); d < 1 {
		return fmt.Errorf("bucketed deeper query: series_extension_steps_saved moved by %v, want >= 1", d)
	}
	fmt.Println("regenserve selfcheck: bucketed traffic OK (near-miss horizons share one grid series, deeper bucket extends in place)")
	return nil
}

// checkObservability asserts /healthz and /varz report the serving state,
// and that draining flips health to 503 and sheds new work with
// Retry-After.
func checkObservability(c *checkClient, srv *server) error {
	status, h, err := c.get("/healthz")
	if err != nil {
		return err
	}
	if status != http.StatusOK || h["ok"] != true {
		return fmt.Errorf("/healthz: HTTP %d %v, want 200 ok", status, h)
	}
	if h["cached_models"] == nil || h["uptime_s"] == nil {
		return fmt.Errorf("/healthz missing fields: %v", h)
	}
	status, v, err := c.get("/varz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/varz: HTTP %d", status)
	}
	for _, key := range []string{"requests", "in_flight_compiles", "in_flight_queries", "shed", "timeouts", "degraded", "panics", "cache_entries", "cache_bytes",
		"series_cache_hits", "series_cache_misses", "series_extensions", "series_extension_steps_saved",
		"snapshot_loads", "snapshot_load_failures", "snapshot_writes", "snapshot_write_failures", "snapshot_bytes_written", "snapshot_quarantines",
		"store_retries", "store_hedged_won", "store_hedged_lost", "store_breaker_opens", "store_breaker_probes"} {
		if _, ok := v[key]; !ok {
			return fmt.Errorf("/varz missing %q: %v", key, v)
		}
	}
	if v["requests"].(float64) <= 0 {
		return fmt.Errorf("/varz requests %v, want > 0", v["requests"])
	}
	if v["cache_bytes"].(float64) <= 0 {
		return fmt.Errorf("/varz cache_bytes %v, want > 0", v["cache_bytes"])
	}
	// The query rounds above share series across clients and horizons, so
	// the engine's work-sharing counters must all have moved.
	for _, key := range []string{"series_cache_hits", "series_cache_misses", "series_extensions", "series_extension_steps_saved"} {
		if v[key].(float64) <= 0 {
			return fmt.Errorf("/varz %s %v, want > 0 after the query rounds", key, v[key])
		}
	}

	// Drain: health goes 503, new work is refused with Retry-After, and
	// un-draining restores service (the selfcheck server never exits).
	srv.draining.Store(true)
	status, _, err = c.get("/healthz")
	if err != nil {
		return err
	}
	if status != http.StatusServiceUnavailable {
		return fmt.Errorf("/healthz while draining: HTTP %d, want 503", status)
	}
	r, err := http.Post(c.base+"/v1/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		return err
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || r.Header.Get("Retry-After") == "" {
		return fmt.Errorf("query while draining: HTTP %d Retry-After=%q, want 503 with Retry-After", r.StatusCode, r.Header.Get("Retry-After"))
	}
	srv.draining.Store(false)
	status, _, err = c.get("/healthz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/healthz after drain cleared: HTTP %d, want 200", status)
	}
	fmt.Println("regenserve selfcheck: /healthz + /varz + drain round-trip OK")
	return nil
}

// runChaos injects faults at the engine's three fault points — chain
// stepping, inversion blocks, cache population — and asserts after every
// round that the server is still serving and that answers after
// faultpoint.Reset are bitwise-identical to the quiet run: injected
// failures fail the rows they hit and nothing else.
func runChaos(c *checkClient, srv *server, modelID string, model *modelJSON, rewards []float64, baseline func(string) error) error {
	defer faultpoint.Reset()

	// Round 1 — slow stepping + tight deadline: a query whose horizon needs
	// fresh chain extension misses its deadline, reports a row error, and
	// leaves the cache unpoisoned (the abandoned construction is cancelled,
	// not cached).
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: 10 * time.Millisecond})
	var slow queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID:   modelID,
		Queries:   []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{2000}}},
		TimeoutMS: 50,
	}, &slow); err != nil {
		return fmt.Errorf("chaos step-delay: %w", err)
	}
	if slow.Results[0].Error == "" {
		return fmt.Errorf("chaos step-delay: deadline-starved query returned rows, want a row error")
	}
	if status, _, err := c.get("/healthz"); err != nil || status != http.StatusOK {
		return fmt.Errorf("chaos step-delay: /healthz %d %v mid-fault, want 200", status, err)
	}
	faultpoint.Reset()
	var retry queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: modelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{2000}}},
	}, &retry); err != nil {
		return fmt.Errorf("chaos step-delay retry: %w", err)
	}
	if retry.Results[0].Error != "" {
		return fmt.Errorf("chaos step-delay retry after reset: %s", retry.Results[0].Error)
	}
	if err := baseline("chaos step-delay"); err != nil {
		return err
	}

	// Round 2 — inversion failure: an injected error in a Laplace block
	// fails the RRL row with the injected error while the SR row in the
	// same batch still answers.
	faultpoint.Enable(laplace.FaultBlock, faultpoint.Spec{Mode: faultpoint.ModeError, After: 1})
	var inv queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: modelID,
		Queries: []queryJSON{
			{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{7, 77}},
			{Method: "SR", Measure: "TRR", Rewards: rewards, Times: []float64{7, 77}},
		},
	}, &inv); err != nil {
		return fmt.Errorf("chaos inversion-error: %w", err)
	}
	if !strings.Contains(inv.Results[0].Error, "injected") {
		return fmt.Errorf("chaos inversion-error: RRL row error %q, want the injected error", inv.Results[0].Error)
	}
	if inv.Results[1].Error != "" {
		return fmt.Errorf("chaos inversion-error: SR row collateral damage: %s", inv.Results[1].Error)
	}
	faultpoint.Reset()
	if err := baseline("chaos inversion-error"); err != nil {
		return err
	}

	// Round 2b — per-backend inversion failure: the euler-specific fault site
	// fails only rows served by the euler backend; a durbin row (per-query
	// override) in the same batch still answers, and after reset the euler
	// answers are bitwise-identical to the quiet run.
	if err := runChaosEuler(c, model, rewards); err != nil {
		return err
	}

	// Round 3 — compile panic: a constructor panic in cache population is
	// recovered into an error for that request (no crash, no poisoned
	// entry); the immediate retry compiles clean.
	faultpoint.Enable(cache.FaultPopulate, faultpoint.Spec{Mode: faultpoint.ModePanic, Times: 1})
	status, msg, err := c.postRaw("/v1/compile", mustJSON(compileRequest{Model: model, Epsilon: 1e-10}))
	if err != nil {
		return fmt.Errorf("chaos compile-panic: %w", err)
	}
	if status == http.StatusOK || !strings.Contains(msg, "panicked") {
		return fmt.Errorf("chaos compile-panic: HTTP %d %q, want a recovered panic error", status, msg)
	}
	var repaired compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, Epsilon: 1e-10}, &repaired); err != nil {
		return fmt.Errorf("chaos compile-panic retry: %w", err)
	}
	faultpoint.Reset()
	if err := baseline("chaos compile-panic"); err != nil {
		return err
	}

	// Round 4 — certified degraded answers: with stepping slowed and a
	// bounded number of triggered delays, the full-precision query misses
	// its deadline but the "degrade":"allow" retry at the server's loosened
	// epsilon answers within the grace budget, flagged as degraded.
	// The Times cap bounds the total injected delay so the degraded retry
	// (which steps a fresh loose-epsilon compile through the same site)
	// stays well inside the grace budget.
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: 10 * time.Millisecond, Times: 40})
	var deg queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID:   modelID,
		Queries:   []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{30000}}},
		TimeoutMS: 50,
		Degrade:   "allow",
	}, &deg); err != nil {
		return fmt.Errorf("chaos degrade: %w", err)
	}
	if deg.Results[0].Error != "" {
		return fmt.Errorf("chaos degrade: row error %q, want a degraded answer", deg.Results[0].Error)
	}
	if !deg.Results[0].Degraded {
		return fmt.Errorf("chaos degrade: row not flagged degraded")
	}
	if deg.Results[0].Epsilon != srv.limits.DegradeEpsilon {
		return fmt.Errorf("chaos degrade: row epsilon %v, want %v", deg.Results[0].Epsilon, srv.limits.DegradeEpsilon)
	}
	// The degraded value is still a certified answer at the loosened bound:
	// compare against a quiet full-precision evaluation.
	faultpoint.Reset()
	var full queryResponse
	if err := c.post("/v1/query", queryRequest{
		ModelID: modelID,
		Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{30000}}},
	}, &full); err != nil {
		return fmt.Errorf("chaos degrade full-precision reference: %w", err)
	}
	if full.Results[0].Error != "" {
		return fmt.Errorf("chaos degrade full-precision reference: %s", full.Results[0].Error)
	}
	if d := math.Abs(deg.Results[0].Results[0].Value - full.Results[0].Results[0].Value); d > 2*srv.limits.DegradeEpsilon {
		return fmt.Errorf("chaos degrade: degraded answer off by %v, beyond the certified %v", d, srv.limits.DegradeEpsilon)
	}
	if err := baseline("chaos degrade"); err != nil {
		return err
	}

	// Round 5 — admission shedding: a second server with one query slot and
	// no queue must shed the request that arrives while slow work holds the
	// slot — a cheap 429 + Retry-After, not a stacked goroutine.
	if err := runShedRound(model, rewards); err != nil {
		return err
	}

	// Rounds 6-8 — durable snapshots: kill-and-restart warm start,
	// corruption on disk, and faults during store I/O, each recovering
	// bitwise-identically.
	if err := runSnapshotRounds(model, rewards); err != nil {
		return err
	}

	// Rounds 9-13 — network object store: slow reads, 5xx bursts, corrupted
	// blobs, and a fully dead store, each answering bitwise-identically to
	// the quiet-store reference; the breaker opens on the dead store and
	// closes again after a successful probe.
	if err := runObjstoreRounds(model, rewards); err != nil {
		return err
	}

	// Round 14 — two nodes sharing one object store: the second node
	// warm-starts a blob compiled by the first, and concurrent write-back of
	// the same content key stores exactly one object.
	if err := runTwoNodeRound(); err != nil {
		return err
	}

	fmt.Println("regenserve selfcheck: chaos rounds OK (stepping delay, inversion error, compile panic, degraded answers, shedding, snapshot durability, object-store chaos, two-node sharing)")
	return nil
}

// runChaosEuler arms the euler backend's own fault site and proves the
// fault's blast radius is exactly the rows that backend serves: the euler
// row fails with the injected error, the durbin row in the same batch is
// untouched, and post-reset euler answers are bitwise-identical to the
// quiet run (the fault changed availability, never values).
func runChaosEuler(c *checkClient, model *modelJSON, rewards []float64) error {
	var comp compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model, Epsilon: 1e-6, Inverter: "euler"}, &comp); err != nil {
		return fmt.Errorf("chaos euler compile: %w", err)
	}
	ask := []queryJSON{
		{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{7, 77}},
		{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{7, 77}, Inverter: "durbin"},
	}
	var quiet queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask}, &quiet); err != nil {
		return fmt.Errorf("chaos euler quiet run: %w", err)
	}
	for i := range quiet.Results {
		if quiet.Results[i].Error != "" {
			return fmt.Errorf("chaos euler quiet run query %d: %s", i, quiet.Results[i].Error)
		}
	}
	faultpoint.Enable(laplace.FaultBlockEuler, faultpoint.Spec{Mode: faultpoint.ModeError, After: 1})
	var faulted queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask}, &faulted); err != nil {
		faultpoint.Reset()
		return fmt.Errorf("chaos euler faulted run: %w", err)
	}
	faultpoint.Reset()
	if !strings.Contains(faulted.Results[0].Error, "injected") {
		return fmt.Errorf("chaos euler: euler row error %q, want the injected error", faulted.Results[0].Error)
	}
	if faulted.Results[1].Error != "" {
		return fmt.Errorf("chaos euler: durbin row collateral damage: %s", faulted.Results[1].Error)
	}
	var after queryResponse
	if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask}, &after); err != nil {
		return fmt.Errorf("chaos euler post-fault run: %w", err)
	}
	for i := range after.Results {
		if after.Results[i].Error != "" {
			return fmt.Errorf("chaos euler post-fault query %d: %s", i, after.Results[i].Error)
		}
		for j := range after.Results[i].Results {
			if !sameRow(after.Results[i].Results[j], quiet.Results[i].Results[j]) {
				return fmt.Errorf("chaos euler: post-fault query %d row %d differs from the quiet run", i, j)
			}
		}
	}
	return nil
}

// runShedRound boots a deliberately tiny server (one query slot, zero
// queue depth) and proves overload is shed with 429 + Retry-After while
// the slot-holding request still answers.
func runShedRound(model *modelJSON, rewards []float64) error {
	srv := newServer(serverConfig{
		CacheEntries: 4,
		Compiles:     1,
		Queries:      1,
		QueueDepth:   0,
		QueueWait:    10 * time.Millisecond,
		Limits: serverLimits{
			DefaultTimeout: 5 * time.Second,
			MaxTimeout:     5 * time.Second,
			MaxBody:        8 << 20,
			MaxStates:      1_000_000,
			MaxTransitions: 10_000_000,
			DegradeEpsilon: 1e-6,
			DegradeGrace:   time.Second,
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: newMux(srv)}
	go hs.Serve(ln)
	defer hs.Close()
	c := &checkClient{base: "http://" + ln.Addr().String()}

	var comp compileResponse
	if err := c.post("/v1/compile", compileRequest{Model: model}, &comp); err != nil {
		return fmt.Errorf("chaos shed compile: %w", err)
	}
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: 10 * time.Millisecond})
	defer faultpoint.Reset()
	slowDone := make(chan error, 1)
	go func() {
		var resp queryResponse
		slowDone <- c.post("/v1/query", queryRequest{
			ModelID:   comp.ModelID,
			Queries:   []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{5000}}},
			TimeoutMS: 500,
		}, &resp)
	}()
	// Give the slow query time to take the single slot, then overload.
	time.Sleep(100 * time.Millisecond)
	r, err := http.Post(c.base+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"model_id":%q,"queries":[{"times":[1],"rewards":[]}]}`, comp.ModelID)))
	if err != nil {
		return err
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests || r.Header.Get("Retry-After") == "" {
		return fmt.Errorf("chaos shed: HTTP %d Retry-After=%q, want 429 with Retry-After", r.StatusCode, r.Header.Get("Retry-After"))
	}
	if err := <-slowDone; err != nil {
		return fmt.Errorf("chaos shed slot-holder: %w", err)
	}
	faultpoint.Reset()
	// The shed counter must be observable.
	status, v, err := c.get("/varz")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("chaos shed /varz: HTTP %d %v", status, err)
	}
	if v["shed"].(float64) < 1 {
		return fmt.Errorf("chaos shed: /varz shed %v, want >= 1", v["shed"])
	}
	return nil
}

// runSnapshotRounds proves the durable-snapshot path fail-safe across
// process lifetimes. A sequence of short-lived in-process servers shares
// one snapshot directory:
//
//   - kill-and-restart: life 1 compiles and queries, then dies without any
//     orderly flush (only the background write-back ran); life 2 must
//     warm-start from the directory and answer bitwise-identically without
//     the client re-uploading the model.
//   - corrupt-on-disk: a byte of the stored blob is flipped; the next life
//     must quarantine it (*.corrupt), recompile, answer bitwise-identically,
//     and re-write a clean snapshot at drain.
//   - fault-during-write-back: with the store.write fault point armed the
//     flush must report the failure and leave no torn blob behind; with the
//     fault cleared the flush succeeds.
func runSnapshotRounds(model *modelJSON, rewards []float64) error {
	dir, err := os.MkdirTemp("", "regenserve-snap-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer faultpoint.Reset()

	// boot starts a fresh server life over the shared snapshot directory;
	// the returned close function is an abrupt kill (no drain, no flush).
	boot := func() (*server, func(), *checkClient, error) {
		srv := newServer(serverConfig{
			CacheEntries: 4,
			Compiles:     2,
			Queries:      4,
			QueueDepth:   8,
			QueueWait:    time.Second,
			Limits: serverLimits{
				DefaultTimeout: 10 * time.Second,
				MaxTimeout:     10 * time.Second,
				MaxBody:        8 << 20,
				MaxStates:      1_000_000,
				MaxTransitions: 10_000_000,
				DegradeEpsilon: 1e-6,
				DegradeGrace:   time.Second,
			},
		})
		if err := attachSnapshots(srv, dir); err != nil {
			return nil, nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		hs := &http.Server{Handler: newMux(srv)}
		go hs.Serve(ln)
		return srv, func() { hs.Close() }, &checkClient{base: "http://" + ln.Addr().String()}, nil
	}
	ask := queryRequest{Queries: []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{1, 10, 100}}}}

	// Life 1: compile + query, wait for the background write-back, die hard.
	srv1, kill1, c1, err := boot()
	if err != nil {
		return fmt.Errorf("chaos snapshot life 1: %w", err)
	}
	var comp compileResponse
	if err := c1.post("/v1/compile", compileRequest{Model: model}, &comp); err != nil {
		return fmt.Errorf("chaos snapshot life 1 compile: %w", err)
	}
	var want queryResponse
	if err := c1.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask.Queries}, &want); err != nil {
		return fmt.Errorf("chaos snapshot life 1 query: %w", err)
	}
	if want.Results[0].Error != "" {
		return fmt.Errorf("chaos snapshot life 1 query: %s", want.Results[0].Error)
	}
	srv1.cache.SnapshotWait()
	kill1()

	// sameAnswers replays the query on a later life and compares bitwise.
	sameAnswers := func(c *checkClient, tag string) error {
		var got queryResponse
		if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask.Queries}, &got); err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
		if got.Results[0].Error != "" {
			return fmt.Errorf("%s: %s", tag, got.Results[0].Error)
		}
		for j := range want.Results[0].Results {
			if !sameRow(got.Results[0].Results[j], want.Results[0].Results[j]) {
				return fmt.Errorf("%s: row %d differs from the pre-restart answers", tag, j)
			}
		}
		return nil
	}

	// Life 2: warm start must have loaded the write-back; the model id from
	// the dead process must answer bitwise with no re-upload.
	before := regenrand.ReadEngineStats()
	srv2, kill2, c2, err := boot()
	if err != nil {
		return fmt.Errorf("chaos snapshot life 2: %w", err)
	}
	if d := regenrand.ReadEngineStats().SnapshotLoads - before.SnapshotLoads; d < 1 {
		return fmt.Errorf("chaos snapshot life 2: warm start loaded %d snapshots, want >= 1", d)
	}
	if err := sameAnswers(c2, "chaos snapshot kill-and-restart"); err != nil {
		return err
	}
	// Drain-time flush (the orderly-shutdown path) must succeed.
	if written, failed := srv2.cache.FlushSnapshots(); written < 1 || failed != 0 {
		kill2()
		return fmt.Errorf("chaos snapshot life 2 flush: %d written, %d failed", written, failed)
	}
	kill2()

	// Corrupt the stored blob in place: flip one byte mid-file.
	blob := filepath.Join(dir, comp.ModelID)
	raw, err := os.ReadFile(blob)
	if err != nil {
		return fmt.Errorf("chaos snapshot corrupt: %w", err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(blob, raw, 0o644); err != nil {
		return fmt.Errorf("chaos snapshot corrupt: %w", err)
	}

	// Life 3: the corrupt blob must be quarantined, not served; the answers
	// come from a recompile and still match bitwise; the drain flush
	// re-writes a clean snapshot.
	before = regenrand.ReadEngineStats()
	srv3, kill3, c3, err := boot()
	if err != nil {
		return fmt.Errorf("chaos snapshot life 3: %w", err)
	}
	defer kill3()
	if d := regenrand.ReadEngineStats().SnapshotLoadFailures - before.SnapshotLoadFailures; d < 1 {
		return fmt.Errorf("chaos snapshot life 3: %d load failures after corruption, want >= 1", d)
	}
	if _, err := os.Stat(blob + ".corrupt"); err != nil {
		return fmt.Errorf("chaos snapshot life 3: corrupt blob not quarantined: %v", err)
	}
	// The quarantined snapshot leaves the cache cold for that id, so the
	// client re-uploads — the recompile must land on the same content key
	// and the answers must still match the pre-corruption run bitwise.
	var recomp compileResponse
	if err := c3.post("/v1/compile", compileRequest{Model: model}, &recomp); err != nil {
		return fmt.Errorf("chaos snapshot life 3 re-upload: %w", err)
	}
	if recomp.ModelID != comp.ModelID {
		return fmt.Errorf("chaos snapshot life 3 re-upload: model id %s, want %s", recomp.ModelID, comp.ModelID)
	}
	if err := sameAnswers(c3, "chaos snapshot corrupt-on-disk"); err != nil {
		return err
	}
	if written, failed := srv3.cache.FlushSnapshots(); written < 1 || failed != 0 {
		return fmt.Errorf("chaos snapshot life 3 flush: %d written, %d failed", written, failed)
	}
	if _, err := os.Stat(blob); err != nil {
		return fmt.Errorf("chaos snapshot life 3: clean snapshot not re-written: %v", err)
	}

	// Fault during write-back: the armed store.write site fails the flush
	// (reported, not hidden), leaves no temp litter, and the next flush
	// succeeds. Times matches the retry wrapper's attempt budget so the
	// write exhausts its retries — fewer and the retry would mask the fault.
	faultpoint.Enable(store.FaultWrite, faultpoint.Spec{Mode: faultpoint.ModeError, Times: 3})
	if _, failed := srv3.cache.FlushSnapshots(); failed < 1 {
		return fmt.Errorf("chaos snapshot write-fault flush: %d failed, want >= 1", failed)
	}
	faultpoint.Reset()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".wr-") {
			return fmt.Errorf("chaos snapshot write-fault: temp file %s left behind", e.Name())
		}
	}
	if written, failed := srv3.cache.FlushSnapshots(); written < 1 || failed != 0 {
		return fmt.Errorf("chaos snapshot recovery flush: %d written, %d failed", written, failed)
	}
	if err := sameAnswers(c3, "chaos snapshot after write fault"); err != nil {
		return err
	}
	return nil
}

// runObjstoreRounds proves the network-object-store snapshot path degrades
// to recompilation and never to wrong answers. A sequence of short-lived
// server lives shares one in-process S3-compatible test server; the store
// stack under test is the production composition (breaker over retry over
// hedged reads) with selfcheck-speed settings. Faults are injected at the
// network layer — slow reads, 5xx bursts, corrupted bodies, severed
// connections — and every life's answers must be bitwise-identical to the
// quiet-store reference. The dead-store round must open the circuit breaker
// (logged), keep answering via recompile, and close the breaker again with
// a successful half-open probe once the store heals.
func runObjstoreRounds(model *modelJSON, rewards []float64) error {
	ts := testserver.New()
	defer ts.Close()
	defer faultpoint.Reset()
	const bucket = "snapbucket"
	endpoint := ts.URL() + "/" + bucket + "/sc"

	// The production wrapper stack at selfcheck speed: hedge after 20ms,
	// three attempts with ~5ms backoff, breaker opening after 3 consecutive
	// failed store conversations and probing after a 250ms cooldown. Breaker
	// transitions log through log.Printf so CI can grep for them.
	newStack := func() (store.Store, error) {
		cfg, err := objstore.ParseURL(endpoint)
		if err != nil {
			return nil, err
		}
		client, err := objstore.New(cfg)
		if err != nil {
			return nil, err
		}
		return store.WithBreaker(
			store.WithRetryPolicy(store.WithHedge(client, 20*time.Millisecond),
				store.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond, MaxElapsed: 2 * time.Second}),
			store.BreakerOptions{Failures: 3, Cooldown: 250 * time.Millisecond, Logf: log.Printf}), nil
	}

	// boot starts a fresh server life over the shared object store. The warm
	// start is tolerated to fail — a dead store must never keep a life from
	// booting cold. The returned close function is an abrupt kill.
	boot := func() (*server, func(), *checkClient, error) {
		st, err := newStack()
		if err != nil {
			return nil, nil, nil, err
		}
		srv := newServer(serverConfig{
			CacheEntries: 4,
			Compiles:     2,
			Queries:      4,
			QueueDepth:   8,
			QueueWait:    time.Second,
			Limits: serverLimits{
				DefaultTimeout: 10 * time.Second,
				MaxTimeout:     10 * time.Second,
				MaxBody:        8 << 20,
				MaxStates:      1_000_000,
				MaxTransitions: 10_000_000,
				DegradeEpsilon: 1e-6,
				DegradeGrace:   time.Second,
			},
		})
		srv.cache.SetSnapshotStore(st, log.Printf)
		if _, _, err := srv.cache.WarmStart(context.Background()); err != nil {
			log.Printf("selfcheck objstore warm start unavailable (booting cold): %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		hs := &http.Server{Handler: newMux(srv)}
		go hs.Serve(ln)
		return srv, func() { hs.Close() }, &checkClient{base: "http://" + ln.Addr().String()}, nil
	}
	ask := []queryJSON{{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: []float64{1, 10, 100}}}

	// Round 9 — quiet store: compile, query, and write back one blob. This
	// life's answers are the reference every faulted life must match bitwise.
	srv9, kill9, c9, err := boot()
	if err != nil {
		return fmt.Errorf("chaos objstore quiet life: %w", err)
	}
	var comp compileResponse
	if err := c9.post("/v1/compile", compileRequest{Model: model}, &comp); err != nil {
		return fmt.Errorf("chaos objstore quiet compile: %w", err)
	}
	var want queryResponse
	if err := c9.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask}, &want); err != nil {
		return fmt.Errorf("chaos objstore quiet query: %w", err)
	}
	if want.Results[0].Error != "" {
		return fmt.Errorf("chaos objstore quiet query: %s", want.Results[0].Error)
	}
	srv9.cache.SnapshotWait()
	kill9()
	key := "sc/" + comp.ModelID
	if _, ok := ts.Object(bucket, key); !ok {
		return fmt.Errorf("chaos objstore quiet life: write-back did not store %s", key)
	}
	if got := ts.CountersSnapshot().Creates; got != 1 {
		return fmt.Errorf("chaos objstore quiet life: %d objects created, want 1", got)
	}

	sameAnswers := func(c *checkClient, tag string) error {
		var got queryResponse
		if err := c.post("/v1/query", queryRequest{ModelID: comp.ModelID, Queries: ask}, &got); err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
		if got.Results[0].Error != "" {
			return fmt.Errorf("%s: %s", tag, got.Results[0].Error)
		}
		for j := range want.Results[0].Results {
			if !sameRow(got.Results[0].Results[j], want.Results[0].Results[j]) {
				return fmt.Errorf("%s: row %d differs from the quiet-store answers", tag, j)
			}
		}
		return nil
	}

	// Round 10 — slow read: the store delays the warm-start GETs; the hedged
	// second request wins the race and the warm start still loads the blob.
	// Times is 2 because the list GET consumes the first shot.
	before := regenrand.ReadEngineStats()
	ts.SetFault(testserver.Config{Mode: testserver.FaultDelay, Delay: 200 * time.Millisecond, Methods: []string{"GET"}, Times: 2})
	srv10, kill10, c10, err := boot()
	ts.SetFault(testserver.Config{})
	if err != nil {
		return fmt.Errorf("chaos objstore slow-read life: %w", err)
	}
	after := regenrand.ReadEngineStats()
	if d := after.SnapshotLoads - before.SnapshotLoads; d < 1 {
		return fmt.Errorf("chaos objstore slow-read: warm start loaded %d snapshots through a slow store, want >= 1", d)
	}
	if d := after.StoreHedgedReadsWon - before.StoreHedgedReadsWon; d < 1 {
		return fmt.Errorf("chaos objstore slow-read: hedged reads won %d races, want >= 1", d)
	}
	if err := sameAnswers(c10, "chaos objstore slow-read"); err != nil {
		return err
	}
	_ = srv10
	kill10()

	// Round 11 — 5xx burst: two 503s in a row are absorbed by the retry
	// wrapper; the warm start still loads and nothing reaches a client.
	before = regenrand.ReadEngineStats()
	ts.SetFault(testserver.Config{Mode: testserver.FaultError5xx, Times: 2})
	srv11, kill11, c11, err := boot()
	ts.SetFault(testserver.Config{})
	if err != nil {
		return fmt.Errorf("chaos objstore 5xx life: %w", err)
	}
	after = regenrand.ReadEngineStats()
	if d := after.StoreRetries - before.StoreRetries; d < 2 {
		return fmt.Errorf("chaos objstore 5xx: %d retries recorded, want >= 2", d)
	}
	if d := after.SnapshotLoads - before.SnapshotLoads; d < 1 {
		return fmt.Errorf("chaos objstore 5xx: warm start loaded %d snapshots through the burst, want >= 1", d)
	}
	if err := sameAnswers(c11, "chaos objstore 5xx burst"); err != nil {
		return err
	}
	_ = srv11
	kill11()

	// Round 12 — corrupted blob: the store serves a bit-flipped body; the
	// checksummed decode must reject it, quarantine it remotely (*.corrupt),
	// recompile on demand, answer bitwise, and re-write a clean blob.
	before = regenrand.ReadEngineStats()
	ts.SetFault(testserver.Config{Mode: testserver.FaultCorrupt, Methods: []string{"GET"}, Times: 2})
	srv12, kill12, c12, err := boot()
	ts.SetFault(testserver.Config{})
	if err != nil {
		return fmt.Errorf("chaos objstore corrupt life: %w", err)
	}
	after = regenrand.ReadEngineStats()
	if d := after.SnapshotLoadFailures - before.SnapshotLoadFailures; d < 1 {
		return fmt.Errorf("chaos objstore corrupt: %d load failures, want >= 1", d)
	}
	if d := after.SnapshotQuarantines - before.SnapshotQuarantines; d < 1 {
		return fmt.Errorf("chaos objstore corrupt: %d quarantines, want >= 1", d)
	}
	if _, ok := ts.Object(bucket, key); ok {
		return fmt.Errorf("chaos objstore corrupt: poisoned blob %s still live in the store", key)
	}
	if _, ok := ts.Object(bucket, key+store.QuarantineSuffix()); !ok {
		return fmt.Errorf("chaos objstore corrupt: no remote quarantine copy at %s%s", key, store.QuarantineSuffix())
	}
	var recomp compileResponse
	if err := c12.post("/v1/compile", compileRequest{Model: model}, &recomp); err != nil {
		return fmt.Errorf("chaos objstore corrupt re-upload: %w", err)
	}
	if recomp.ModelID != comp.ModelID {
		return fmt.Errorf("chaos objstore corrupt re-upload: model id %s, want %s", recomp.ModelID, comp.ModelID)
	}
	if err := sameAnswers(c12, "chaos objstore corrupt"); err != nil {
		return err
	}
	srv12.cache.SnapshotWait()
	if _, ok := ts.Object(bucket, key); !ok {
		return fmt.Errorf("chaos objstore corrupt: clean blob not re-written after quarantine")
	}
	kill12()

	// Round 13 — dead store: every connection is severed. The life boots
	// cold, compiles from scratch, answers bitwise — and after the warm-start
	// list, the snapshot read, and the write-back each fail, the breaker
	// opens. While open, further compiles skip the store entirely. Once the
	// store heals and the cooldown passes, the next snapshot read is the
	// half-open probe that closes the breaker, and write-back flows again.
	before = regenrand.ReadEngineStats()
	ts.SetFault(testserver.Config{Mode: testserver.FaultDead})
	srv13, kill13, c13, err := boot()
	if err != nil {
		ts.SetFault(testserver.Config{})
		return fmt.Errorf("chaos objstore dead life: %w", err)
	}
	if err := c13.post("/v1/compile", compileRequest{Model: model}, &recomp); err != nil {
		return fmt.Errorf("chaos objstore dead compile: %w", err)
	}
	if err := sameAnswers(c13, "chaos objstore dead store"); err != nil {
		return err
	}
	srv13.cache.SnapshotWait()
	after = regenrand.ReadEngineStats()
	if d := after.StoreBreakerOpens - before.StoreBreakerOpens; d < 1 {
		return fmt.Errorf("chaos objstore dead: breaker opened %d times, want >= 1", d)
	}
	// Breaker open: this compile fails fast into a recompile — still a 200,
	// still served, no store wait.
	var variant compileResponse
	if err := c13.post("/v1/compile", compileRequest{Model: model, Epsilon: 1e-8}, &variant); err != nil {
		return fmt.Errorf("chaos objstore dead fail-fast compile: %w", err)
	}
	srv13.cache.SnapshotWait()

	// Heal the store, wait out the cooldown, and compile a fresh variant:
	// its snapshot read is the half-open probe (a clean miss counts as store
	// contact), the breaker closes, and the write-back stores the blob.
	ts.SetFault(testserver.Config{})
	time.Sleep(400 * time.Millisecond)
	mid := regenrand.ReadEngineStats()
	var healed compileResponse
	if err := c13.post("/v1/compile", compileRequest{Model: model, Epsilon: 2e-8}, &healed); err != nil {
		return fmt.Errorf("chaos objstore healed compile: %w", err)
	}
	srv13.cache.SnapshotWait()
	after = regenrand.ReadEngineStats()
	if d := after.StoreBreakerProbes - mid.StoreBreakerProbes; d < 1 {
		return fmt.Errorf("chaos objstore healed: %d breaker probes, want >= 1", d)
	}
	if _, ok := ts.Object(bucket, "sc/"+healed.ModelID); !ok {
		return fmt.Errorf("chaos objstore healed: write-back did not reach the recovered store")
	}
	if err := sameAnswers(c13, "chaos objstore recovered"); err != nil {
		return err
	}
	kill13()
	fmt.Println("regenserve selfcheck: object-store chaos OK (slow reads hedged, 5xx retried, corruption quarantined remotely, dead store -> breaker open -> recompile -> probe -> closed)")
	return nil
}

// runTwoNodeRound simulates two serving nodes sharing one object store at
// the engine level: node 1 compiles and writes back, node 2 warm-starts the
// blob and answers bitwise-identically without compiling, and a concurrent
// write-back race on a brand-new content key resolves via the conditional
// write with exactly one stored object.
func runTwoNodeRound() error {
	ts := testserver.New()
	defer ts.Close()
	cfg, err := objstore.ParseURL(ts.URL() + "/snapbucket/two-node")
	if err != nil {
		return err
	}
	newNode := func() (*regenrand.CompileCache, error) {
		client, err := objstore.New(cfg)
		if err != nil {
			return nil, err
		}
		cc := regenrand.NewCompileCache(8)
		cc.SetSnapshotStore(store.WithRetryPolicy(client,
			store.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}), log.Printf)
		return cc, nil
	}
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(2), false)
	if err != nil {
		return err
	}
	copts := regenrand.CompileOptions{Options: regenrand.DefaultOptions()}
	q := regenrand.Query{Method: regenrand.MethodRRL, Measure: regenrand.MeasureTRR,
		Rewards: rm.UnavailabilityRewards(), Times: []float64{1, 10, 100}}

	// Node 1 compiles and writes back one blob.
	node1, err := newNode()
	if err != nil {
		return err
	}
	cm1, err := node1.Compile(rm.Chain, copts)
	if err != nil {
		return fmt.Errorf("chaos two-node: node 1 compile: %w", err)
	}
	want, err := cm1.Query(q)
	if err != nil {
		return fmt.Errorf("chaos two-node: node 1 query: %w", err)
	}
	node1.SnapshotWait()
	if got := ts.CountersSnapshot().Creates; got != 1 {
		return fmt.Errorf("chaos two-node: node 1 wrote %d objects, want 1", got)
	}

	// Node 2 warm-starts the blob node 1 compiled and must answer bitwise
	// without ever compiling.
	node2, err := newNode()
	if err != nil {
		return err
	}
	loaded, failed, err := node2.WarmStart(context.Background())
	if err != nil || loaded < 1 || failed != 0 {
		return fmt.Errorf("chaos two-node: node 2 warm start loaded %d failed %d err %v, want >= 1 loaded", loaded, failed, err)
	}
	cm2, err := node2.Compile(rm.Chain, copts) // served from the warm-started cache
	if err != nil {
		return fmt.Errorf("chaos two-node: node 2 lookup: %w", err)
	}
	got, err := cm2.Query(q)
	if err != nil {
		return fmt.Errorf("chaos two-node: node 2 query: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("chaos two-node: node 2 returned %d rows, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j].T != want[j].T || got[j].Value != want[j].Value ||
			got[j].Steps != want[j].Steps || got[j].Abscissae != want[j].Abscissae {
			return fmt.Errorf("chaos two-node: node 2 row %d differs from node 1 (%+v vs %+v)", j, got[j], want[j])
		}
	}

	// Both nodes compile the same brand-new content key concurrently; the
	// conditional write-back must store exactly one object between them.
	copts2 := copts
	copts2.Options.Epsilon = 1e-8
	before := ts.CountersSnapshot().Creates
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, node := range []*regenrand.CompileCache{node1, node2} {
		wg.Add(1)
		go func(i int, node *regenrand.CompileCache) {
			defer wg.Done()
			_, errs[i] = node.Compile(rm.Chain, copts2)
		}(i, node)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("chaos two-node: racing compile on node %d: %w", i+1, err)
		}
	}
	node1.SnapshotWait()
	node2.SnapshotWait()
	if d := ts.CountersSnapshot().Creates - before; d != 1 {
		return fmt.Errorf("chaos two-node: racing write-back created %d objects, want exactly 1", d)
	}
	if got := ts.ObjectCount(); got != 2 {
		return fmt.Errorf("chaos two-node: store holds %d objects, want 2", got)
	}
	fmt.Println("regenserve selfcheck: two-node object-store sharing OK (warm start across nodes, racing write-back stored exactly once)")
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
