package main

import (
	"context"
	"testing"
)

// The exact per-layer counts must repeat bit for bit under one seed: they
// are taken over the first countOps ops of each stream, whose contents are a
// pure function of the seed, and the engine's counts are a pure function of
// the request.

func TestColdCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles cold models")
	}
	ctx := context.Background()
	run := func() (string, []int, []int) {
		gen, dig := rngFor(7, 2), newStreamDigest()
		var steps, abs []int
		for i := 0; i < 4; i++ {
			s, err := newColdSpec(gen, i, dig)
			if err != nil {
				t.Fatal(err)
			}
			res, _, st, _, _, err := s.tracedOp(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, st)
			for _, r := range res {
				abs = append(abs, r.Abscissae)
			}
		}
		return dig.sum(), steps, abs
	}
	h1, s1, a1 := run()
	h2, s2, a2 := run()
	if h1 != h2 {
		t.Errorf("stream hash %s != %s", h1, h2)
	}
	for i := range s1 {
		if s1[i] != s2[i] || s1[i] == 0 {
			t.Errorf("op %d steps %d vs %d", i, s1[i], s2[i])
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] || a1[i] == 0 {
			t.Errorf("answer %d abscissae %d vs %d", i, a1[i], a2[i])
		}
	}
}

func TestWarmCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the G=20 library")
	}
	ctx := context.Background()
	lib, err := newWarmLib(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.addLayers(ctx, nil); err != nil {
		t.Fatal(err)
	}
	run := func() []int {
		gen := rngFor(7, 2)
		var abs []int
		for i := 0; i < 3; i++ {
			a, _, _, ok := lib.tracedOp(ctx, nil, i, logTimes(gen, warmTimes, 1, warmHorizon))
			if !ok {
				t.Fatalf("op %d failed", i)
			}
			for _, rows := range a.values {
				for _, r := range rows {
					abs = append(abs, r.Abscissae)
				}
			}
		}
		return abs
	}
	a1, a2 := run(), run()
	if len(a1) != 3*len(lib.models[0].values)*warmTimes {
		t.Fatalf("%d answers", len(a1))
	}
	for i := range a1 {
		if a1[i] != a2[i] || a1[i] == 0 {
			t.Errorf("answer %d abscissae %d vs %d", i, a1[i], a2[i])
		}
	}
}

func TestHTTPStreamRepeats(t *testing.T) {
	lib, err := newHTTPLib()
	if err != nil {
		t.Fatal(err)
	}
	hash := func(seed int64) string {
		g := &httpGen{rng: rngFor(seed, 1), lib: lib, dig: newStreamDigest()}
		kinds := map[byte]int{}
		for i := 0; i < countOps; i++ {
			op, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			kinds[op.kind]++
		}
		// Whole blocks of ten keep the mix exact.
		if kinds['F'] < 16 || kinds['N'] < 12 || kinds['E'] < 8 || kinds['B'] < 4 {
			t.Errorf("mix over %d ops: %v", countOps, kinds)
		}
		return g.dig.sum()
	}
	if hash(7) != hash(7) {
		t.Error("same seed, different stream")
	}
	if hash(7) == hash(8) {
		t.Error("different seeds, same stream")
	}
}
