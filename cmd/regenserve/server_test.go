package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer starts the regenserve mux on an in-process httptest server
// with the command-line default limits.
func newTestServer(t *testing.T) *checkClient {
	t.Helper()
	srv := newServer(serverConfig{
		CacheEntries: 4,
		Compiles:     2,
		Queries:      4,
		QueueDepth:   8,
		QueueWait:    2 * time.Second,
		Limits: serverLimits{
			DefaultTimeout: 30 * time.Second,
			MaxTimeout:     2 * time.Minute,
			MaxBody:        8 << 20,
			MaxStates:      1_000_000,
			MaxTransitions: 10_000_000,
			DegradeEpsilon: 1e-6,
			DegradeGrace:   2 * time.Second,
		},
	})
	ts := httptest.NewServer(newMux(srv))
	t.Cleanup(ts.Close)
	return &checkClient{base: ts.URL}
}

// Malformed wire requests are rejected at the trust boundary — the engine
// never sees them and the server never panics: every malformed model
// answers 400 naming the offending field on both endpoints, an unknown
// model id answers 404, and an oversized body sheds at the reader with 413
// before any engine work.
func TestRequestValidation(t *testing.T) {
	both := []string{"/v1/compile", "/v1/query"}
	cases := []struct {
		name   string
		paths  []string
		body   string
		status int
		want   string // substring of the error message
	}{
		{"negative rate", both, `{"model":{"states":2,"transitions":[[0,1,-0.5]]}}`, http.StatusBadRequest, "transitions[0].rate"},
		{"fractional from", both, `{"model":{"states":2,"transitions":[[0.5,1,1]]}}`, http.StatusBadRequest, "transitions[0].from"},
		{"out-of-range to", both, `{"model":{"states":2,"transitions":[[0,5,1]]}}`, http.StatusBadRequest, "transitions[0].to"},
		{"wrong transition arity", both, `{"model":{"states":2,"transitions":[[0,1]]}}`, http.StatusBadRequest, "transitions[0]"},
		{"probability above one", both, `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0,1.5]]}}`, http.StatusBadRequest, "initial[0].probability"},
		{"fractional initial state", both, `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0.5,1]]}}`, http.StatusBadRequest, "initial[0].state"},
		{"non-normalized initial", both, `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0,0.4],[1,0.4]]}}`, http.StatusBadRequest, "sum to 0.8"},
		{"zero states", both, `{"model":{"states":0}}`, http.StatusBadRequest, "model.states"},
		{"missing model", both, `{}`, http.StatusBadRequest, "model"}, // "model: missing" / "need model_id or model"
		{"states cap", both, fmt.Sprintf(`{"model":{"states":%d}}`, 2_000_000), http.StatusBadRequest, "exceeds the server cap"},
		{"malformed json", both, `{"model":`, http.StatusBadRequest, "decoding request"},
		{"unknown model id", []string{"/v1/query"}, `{"model_id":"nope","queries":[{"times":[1],"rewards":[]}]}`, http.StatusNotFound, ""},
		{"oversized body", []string{"/v1/query"}, `{"junk":"` + strings.Repeat("a", 9<<20) + `"}`, http.StatusRequestEntityTooLarge, ""},
	}
	c := newTestServer(t)
	for _, tc := range cases {
		for _, path := range tc.paths {
			t.Run(tc.name+" "+path, func(t *testing.T) {
				status, msg, err := c.postRaw(path, tc.body)
				if err != nil {
					t.Fatal(err)
				}
				if status != tc.status {
					t.Fatalf("HTTP %d (%s), want %d", status, msg, tc.status)
				}
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("error %q does not name %q", msg, tc.want)
				}
			})
		}
	}
}
