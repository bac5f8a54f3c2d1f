package core

// Additional CrowdedBin coverage: schedule/config edge cases beyond the
// basic solve tests in core_test.go.

import (
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

func runCrowdedBin(t *testing.T, n, k int, cfg CrowdedBinConfig, g *graph.Graph, seed uint64) mtm.Result {
	t.Helper()
	st := mustState(t, n, OneTokenPerNode(n, k))
	cb, err := NewCrowdedBin(st, cfg, prand.New(prand.Mix64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mtm.NewEngine(dyngraph.NewStatic(g), cb, mtm.Config{Seed: seed + 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("CrowdedBin unsolved after %d rounds (n=%d, k=%d, cfg=%+v)", res.Rounds, n, k, cfg)
	}
	if got := st.Potential(); got != 0 {
		t.Fatalf("final potential %d, want 0", got)
	}
	return res
}

func TestCrowdedBinRejectsOversizedTagWidth(t *testing.T) {
	// Beta*logN > 62 must be rejected up front: tags are spelled through a
	// uint64 accumulator.
	st := mustState(t, 1024, OneTokenPerNode(1024, 4))
	if _, err := NewCrowdedBin(st, CrowdedBinConfig{Beta: 7, Gamma: 2}, prand.New(1)); err == nil {
		t.Error("Beta=7 at N=1024 (70 tag bits) should be rejected")
	}
}

func TestCrowdedBinSolvesWithKEqualsN(t *testing.T) {
	const n = 12
	g := graph.RandomRegular(n, 4, prand.New(5))
	runCrowdedBin(t, n, n, CrowdedBinConfig{}, g, 31)
}

func TestCrowdedBinSolvesOnNonPowerOfTwoN(t *testing.T) {
	// The schedule math uses ⌈log₂⌉ sizes; N = 13 stresses the rounding.
	const n = 13
	g := graph.GNP(n, 0.5, prand.New(9))
	runCrowdedBin(t, n, 5, CrowdedBinConfig{}, g, 17)
}

func TestCrowdedBinSolvesWithSingleToken(t *testing.T) {
	// k = 1 reduces to rumor spreading through instance 1.
	const n = 16
	g := graph.Cycle(n)
	runCrowdedBin(t, n, 1, CrowdedBinConfig{}, g, 3)
}

func TestCrowdedBinLargerConstantsStillSolve(t *testing.T) {
	const n, k = 16, 4
	// Seed note: at N = 16 and β = 2 the tag space has only N^β = 256
	// values, so ≈ 2% of seeds produce a tag collision — the exact
	// "not good configuration" failure mode Lemma 6.5 bounds, which stalls
	// the run. Seed 8 draws collision-free tags for both configs.
	g := graph.RandomRegular(n, 4, prand.New(2))
	small := runCrowdedBin(t, n, k, CrowdedBinConfig{Beta: 2, Gamma: 2}, g, 8)
	big := runCrowdedBin(t, n, k, CrowdedBinConfig{Beta: 3, Gamma: 4}, g, 8)
	if big.Rounds <= small.Rounds {
		t.Errorf("larger schedule constants should cost more rounds: β=2,γ=2 → %d; β=3,γ=4 → %d",
			small.Rounds, big.Rounds)
	}
}

func TestCrowdedBinStaysWithinBudget(t *testing.T) {
	// The engine errors on budget violations; a clean completion plus the
	// metered totals proves CrowdedBin's advertising-heavy schedule still
	// respects the per-connection bounds.
	const n, k = 16, 4
	g := graph.RandomRegular(n, 4, prand.New(4))
	res := runCrowdedBin(t, n, k, CrowdedBinConfig{}, g, 23)
	if res.Connections == 0 || res.TokensMoved == 0 {
		t.Errorf("expected token movement through connections, got %+v", res)
	}
	if res.TokensMoved < int64(k*(n-1)) {
		// Every one of the k tokens must reach n−1 new nodes; CrowdedBin
		// moves tokens only via PPUSH connections, one per connection.
		t.Errorf("moved %d tokens; at least %d transfers required", res.TokensMoved, k*(n-1))
	}
}

func TestCrowdedBinDeterministicAcrossBackends(t *testing.T) {
	const n, k = 16, 4
	run := func(workers int) mtm.Result {
		st := mustState(t, n, OneTokenPerNode(n, k))
		cb, err := NewCrowdedBin(st, CrowdedBinConfig{}, prand.New(8))
		if err != nil {
			t.Fatal(err)
		}
		g := graph.RandomRegular(n, 4, prand.New(6))
		res, err := mtm.NewEngine(dyngraph.NewStatic(g), cb, mtm.Config{
			Seed: 13, Workers: workers,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("unsolved after %d rounds (workers=%d)", res.Rounds, workers)
		}
		return res
	}
	if seq, par := run(1), run(4); seq != par {
		t.Errorf("worker counts diverged:\n  w=1: %+v\n  w=4: %+v", seq, par)
	}
}
