package mobilegossip

import (
	"context"
	"errors"
	"testing"
)

func TestRunAllAlgorithmsSolve(t *testing.T) {
	for _, alg := range []Algorithm{AlgBlindMatch, AlgSharedBit, AlgSimSharedBit, AlgCrowdedBin} {
		res, err := Run(Config{
			Algorithm: alg,
			N:         16, K: 4,
			Topology: Topology{Kind: RandomRegular, Degree: 4},
			Seed:     1,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Solved || res.FinalPotential != 0 {
			t.Fatalf("%v: unsolved after %d rounds (φ=%d)", alg, res.Rounds, res.FinalPotential)
		}
	}
}

func TestRunDynamicTopologies(t *testing.T) {
	for _, alg := range []Algorithm{AlgBlindMatch, AlgSharedBit, AlgSimSharedBit} {
		res, err := Run(Config{
			Algorithm: alg,
			N:         12, K: 3,
			Topology: Topology{Kind: Cycle},
			Tau:      1,
			Seed:     2,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Solved {
			t.Fatalf("%v: unsolved on τ=1 rotating ring after %d rounds", alg, res.Rounds)
		}
	}
}

func TestRunEpsilonGossip(t *testing.T) {
	res, err := Run(Config{
		Algorithm: AlgSharedBit,
		N:         16, K: 16,
		Epsilon:  0.5,
		Topology: Topology{Kind: Complete},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("ε-gossip unsolved after %d rounds", res.Rounds)
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"badN", Config{Algorithm: AlgSharedBit, N: 1, K: 1}, ErrBadN},
		{"badK0", Config{Algorithm: AlgSharedBit, N: 4, K: 0}, ErrBadK},
		{"badKbig", Config{Algorithm: AlgSharedBit, N: 4, K: 5}, ErrBadK},
		{"epsAlg", Config{Algorithm: AlgBlindMatch, N: 4, K: 4, Epsilon: 0.5}, ErrEpsilonRequires},
		{"epsK", Config{Algorithm: AlgSharedBit, N: 4, K: 2, Epsilon: 0.5}, ErrEpsilonRequires},
		{"cbTau", Config{Algorithm: AlgCrowdedBin, N: 4, K: 2, Tau: 1}, ErrCrowdedBinTau},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := Run(Config{Algorithm: AlgSharedBit, N: 4, K: 4, Epsilon: 1.5}); err == nil {
		t.Error("epsilon out of range accepted")
	}
	if _, err := Run(Config{Algorithm: Algorithm(99), N: 4, K: 2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Algorithm: AlgSharedBit, N: 14, K: 4,
		Topology: Topology{Kind: GNP}, Tau: 2, Seed: 7,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunMaxRoundsAborts(t *testing.T) {
	res, err := Run(Config{
		Algorithm: AlgBlindMatch, N: 32, K: 32,
		Topology: Topology{Kind: DoubleStar}, Seed: 4, MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Rounds != 10 {
		t.Fatalf("res = %+v, want 10 unsolved rounds", res)
	}
	if res.FinalPotential == 0 {
		t.Fatal("φ = 0 for an unsolved run")
	}
}

// TestRunObserverPotentialTrace watches φ through a synchronous bus
// subscriber: it must fall monotonically to 0.
func TestRunObserverPotentialTrace(t *testing.T) {
	sim, err := New(Config{
		Algorithm: AlgSharedBit, N: 10, K: 3,
		Topology: Topology{Kind: Complete}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var phis []int
	sim.Bus().SubscribeSync(EventFilter{Types: []EventType{EventRoundCompleted}},
		func(ev Event) { phis = append(phis, ev.Potential) })
	if _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(phis) == 0 || phis[len(phis)-1] != 0 {
		t.Fatalf("potential trace bad: %v", phis)
	}
	for i := 1; i < len(phis); i++ {
		if phis[i] > phis[i-1] {
			t.Fatalf("φ increased at index %d: %v", i, phis)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, alg := range []Algorithm{AlgBlindMatch, AlgSharedBit, AlgSimSharedBit, AlgCrowdedBin} {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Errorf("algorithm %v does not round-trip: %v, %v", alg, got, err)
		}
	}
	for _, k := range []TopologyKind{Cycle, Path, Complete, Star, DoubleStar, Grid, Hypercube, GNP, RandomRegular, Barbell} {
		got, err := ParseTopologyKind(k.String())
		if err != nil || got != k {
			t.Errorf("topology %v does not round-trip: %v, %v", k, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("bogus algorithm parsed")
	}
	if _, err := ParseTopologyKind("nope"); err == nil {
		t.Error("bogus topology parsed")
	}
}

func TestTopologyBuildErrors(t *testing.T) {
	if _, err := (Topology{Kind: Hypercube}).Build(10, 0, 1); err == nil {
		t.Error("hypercube on non-power-of-two accepted")
	}
	if _, err := (Topology{Kind: Grid, Rows: 3, Cols: 3}).Build(10, 0, 1); err == nil {
		t.Error("grid mismatch accepted")
	}
	if _, err := (Topology{Kind: TopologyKind(42)}).Build(8, 0, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	// Dynamic builds must validate the family too.
	if _, err := (Topology{Kind: Hypercube}).Build(10, 1, 1); err == nil {
		t.Error("dynamic hypercube on non-power-of-two accepted")
	}
}

func TestTopologyDefaults(t *testing.T) {
	// Grid auto-factors near-square sizes; hypercube accepts powers of two.
	for _, n := range []int{12, 16, 20} {
		if _, err := (Topology{Kind: Grid}).Build(n, 0, 1); err != nil {
			t.Errorf("grid n=%d: %v", n, err)
		}
	}
	if _, err := (Topology{Kind: Hypercube}).Build(16, 0, 1); err != nil {
		t.Error("hypercube n=16 rejected")
	}
	// Barbell default: two n/2 cliques bridged directly.
	if _, err := (Topology{Kind: Barbell}).Build(12, 0, 1); err != nil {
		t.Error("barbell default rejected")
	}
}

func TestAllTopologiesRunnable(t *testing.T) {
	for _, k := range []TopologyKind{Cycle, Path, Complete, Star, DoubleStar, Grid, Hypercube, GNP, RandomRegular, Barbell} {
		res, err := Run(Config{
			Algorithm: AlgSharedBit, N: 16, K: 2,
			Topology: Topology{Kind: k}, Seed: 6,
		})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !res.Solved {
			t.Fatalf("%v: unsolved after %d rounds", k, res.Rounds)
		}
	}
}
