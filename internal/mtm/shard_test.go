package mtm

import (
	"sort"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// recordedRun drives one engine to completion with pair recording on and
// returns everything the determinism oracle compares: the run summary, the
// protocol's final per-node values, every node's final RNG state (catching
// divergence in randomness consumption even when outcomes coincide), and
// the per-round connection matchings in canonical (responder-sorted) order.
type recordedRun struct {
	res    Result
	vals   []int
	rngs   [][4]uint64
	rounds [][][2]int
}

func runSharded(t *testing.T, mkDyn func() dyngraph.Dynamic, n int, cfg Config, testCuts []int32) recordedRun {
	t.Helper()
	p := newMinSpread(n)
	p.recordPairs = true
	var out recordedRun
	roundStart := 0
	cfg.OnRound = func(int) {
		seg := append([][2]int(nil), p.sawConnections[roundStart:]...)
		// A sharded exchange records pairs in scheduling order; the
		// matching itself is the deterministic object, so canonicalize by
		// responder (each responder appears at most once per round).
		sort.Slice(seg, func(i, j int) bool { return seg[i][1] < seg[j][1] })
		out.rounds = append(out.rounds, seg)
		roundStart = len(p.sawConnections)
	}
	e := NewEngine(mkDyn(), p, cfg)
	e.testCuts = testCuts
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out.res = res
	out.vals = p.vals
	for _, r := range e.rngs {
		out.rngs = append(out.rngs, r.State())
	}
	return out
}

func sameRun(t *testing.T, label string, want, got recordedRun) {
	t.Helper()
	if want.res != got.res {
		t.Fatalf("%s: result %+v != sequential %+v", label, got.res, want.res)
	}
	for u := range want.vals {
		if want.vals[u] != got.vals[u] {
			t.Fatalf("%s: node %d value %d != sequential %d", label, u, got.vals[u], want.vals[u])
		}
	}
	for u := range want.rngs {
		if want.rngs[u] != got.rngs[u] {
			t.Fatalf("%s: node %d RNG state diverged", label, u)
		}
	}
	if len(want.rounds) != len(got.rounds) {
		t.Fatalf("%s: %d rounds != sequential %d", label, len(got.rounds), len(want.rounds))
	}
	for r := range want.rounds {
		a, b := want.rounds[r], got.rounds[r]
		if len(a) != len(b) {
			t.Fatalf("%s: round %d matching size %d != sequential %d", label, r+1, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: round %d pair %d: %v != sequential %v", label, r+1, i, b[i], a[i])
			}
		}
	}
}

func TestShardedIdenticalToSequential(t *testing.T) {
	topologies := []struct {
		name string
		n    int
		mk   func() dyngraph.Dynamic
	}{
		{"static-regular", 60, func() dyngraph.Dynamic {
			return dyngraph.NewStatic(graph.RandomRegular(60, 4, prand.New(21)))
		}},
		{"rotating-ring", 20, func() dyngraph.Dynamic { return dyngraph.RotatingRing(20, 1, 99) }},
		{"rotating-regular", 18, func() dyngraph.Dynamic { return dyngraph.RotatingRegular(18, 3, 2, 7) }},
		{"star", 33, func() dyngraph.Dynamic { return dyngraph.NewStatic(graph.Star(33)) }},
	}
	for _, tc := range topologies {
		cfg := Config{Seed: 11, MaxRounds: 50000}
		seq := runSharded(t, tc.mk, tc.n, cfg, nil)
		for _, w := range []int{2, 3, 8} {
			cfg.Workers = w
			sameRun(t, tc.name, seq, runSharded(t, tc.mk, tc.n, cfg, nil))
		}
	}
}

// TestShardMergeOrderIndependence is the shard-merge property test: random
// shard counts and boundaries — including empty, tiny, and wildly uneven
// shards — on random graphs must produce matchings (and complete executions)
// byte-identical to workers=1.
func TestShardMergeOrderIndependence(t *testing.T) {
	rng := prand.New(0xc0ffee)
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(120)
		d := 2 + rng.Intn(3)
		if d >= n {
			d = n - 1
		}
		if n*d%2 == 1 {
			d--
		}
		gseed := rng.Uint64()
		mk := func() dyngraph.Dynamic {
			if d < 2 {
				return dyngraph.NewStatic(graph.Cycle(n))
			}
			return dyngraph.NewStatic(graph.RandomRegular(n, d, prand.New(gseed)))
		}
		cfg := Config{Seed: rng.Uint64(), MaxRounds: 20000}
		seq := runSharded(t, mk, n, cfg, nil)

		// Random boundaries: k-1 arbitrary (unsorted-then-sorted) cut points
		// in [0, n], so shards may be empty or hold nearly everything.
		k := 1 + rng.Intn(9)
		cuts := make([]int32, 0, k+1)
		cuts = append(cuts, 0)
		for i := 1; i < k; i++ {
			cuts = append(cuts, int32(rng.Intn(n+1)))
		}
		cuts = append(cuts, int32(n))
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

		cfg.Workers = k // resolved count is irrelevant once testCuts is set
		sameRun(t, "random-cuts", seq, runSharded(t, mk, n, cfg, cuts))
	}
}

func TestShardedWorkersExceedN(t *testing.T) {
	mk := func() dyngraph.Dynamic { return dyngraph.NewStatic(graph.Complete(6)) }
	cfg := Config{Seed: 3, MaxRounds: 20000}
	seq := runSharded(t, mk, 6, cfg, nil)
	cfg.Workers = 64
	sameRun(t, "workers>n", seq, runSharded(t, mk, 6, cfg, nil))
}

func TestShardedTagErrorMatchesSequential(t *testing.T) {
	run := func(workers int) error {
		dyn := dyngraph.NewStatic(graph.Cycle(12))
		p := &badTag{*newMinSpread(12)}
		_, err := NewEngine(dyn, p, Config{Seed: 1, MaxRounds: 5, Workers: workers}).Run()
		return err
	}
	seqErr, parErr := run(1), run(5)
	if seqErr == nil || parErr == nil {
		t.Fatalf("tag violation not reported: seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error diverged:\n  seq: %v\n  par: %v", seqErr, parErr)
	}
}

func TestShardedSetWorkersMidRun(t *testing.T) {
	mk := func() dyngraph.Dynamic { return dyngraph.RotatingRegular(40, 4, 3, 17) }
	cfg := Config{Seed: 23, MaxRounds: 50000}
	seq := runSharded(t, mk, 40, cfg, nil)

	// Same run, but flip the worker count at round boundaries mid-flight:
	// worker count must affect wall-clock only, never the execution.
	p := newMinSpread(40)
	e := NewEngine(mk(), p, Config{Seed: 23, MaxRounds: 50000})
	for i := 0; !e.Finished(); i++ {
		e.SetWorkers([]int{1, 4, 2, 7}[i%4])
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Result()
	if res != seq.res {
		t.Fatalf("mid-run SetWorkers diverged: %+v != %+v", res, seq.res)
	}
	for u, v := range p.vals {
		if v != seq.vals[u] {
			t.Fatalf("node %d value %d != sequential %d", u, v, seq.vals[u])
		}
	}
}

func TestShardedBudgetAndMeters(t *testing.T) {
	// The sharded exchange must meter bits/tokens and surface budget
	// violations exactly like the sequential path.
	mkP := func() *minSpread {
		p := newMinSpread(30)
		p.bitsPer = 1 << 20
		return p
	}
	dyn := func() dyngraph.Dynamic { return dyngraph.NewStatic(graph.Complete(30)) }
	_, seqErr := NewEngine(dyn(), mkP(), Config{Seed: 2, MaxRounds: 100}).Run()
	_, parErr := NewEngine(dyn(), mkP(), Config{Seed: 2, MaxRounds: 100, Workers: 4}).Run()
	if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
		t.Fatalf("budget enforcement diverged: seq=%v par=%v", seqErr, parErr)
	}
}
