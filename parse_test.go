package mobilegossip

import (
	"math"
	"strings"
	"testing"

	"mobilegossip/internal/prand"
)

// TestEnumerators pins Algorithms/TopologyKinds as the
// single source of truth: every enumerated value round-trips through
// String/Parse, every registered name is enumerated, and unknown-name
// errors list the valid names so the CLI user never has to guess.
func TestEnumerators(t *testing.T) {
	algs := Algorithms()
	if len(algs) != len(algNames[AlgBlindMatch:]) {
		t.Errorf("Algorithms() has %d entries, registry has %d", len(algs), len(algNames[AlgBlindMatch:]))
	}
	for i, a := range algs {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("algorithm %d (%v) does not round-trip: %v %v", i, a, got, err)
		}
	}
	if got := AlgorithmNames(); len(got) != len(algs) || got[0] != "blindmatch" {
		t.Errorf("AlgorithmNames() = %v", got)
	}

	kinds := TopologyKinds()
	if len(kinds) != len(kindNames[Cycle:]) {
		t.Errorf("TopologyKinds() has %d entries, registry has %d", len(kinds), len(kindNames[Cycle:]))
	}
	for i, k := range kinds {
		if got, err := ParseTopologyKind(k.String()); err != nil || got != k {
			t.Errorf("kind %d (%v) does not round-trip: %v %v", i, k, got, err)
		}
	}

	if _, err := ParseAlgorithm("nope"); err == nil || !strings.Contains(err.Error(), "sharedbit") {
		t.Errorf("ParseAlgorithm error does not enumerate valid names: %v", err)
	}
	if _, err := ParseTopologyKind("nope"); err == nil || !strings.Contains(err.Error(), "waypoint") {
		t.Errorf("ParseTopologyKind error does not enumerate valid names: %v", err)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{AlgBlindMatch, AlgSharedBit, AlgSimSharedBit, AlgCrowdedBin} {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Errorf("%v: %v", a, err)
			continue
		}
		if got != a {
			t.Errorf("round trip %v -> %q -> %v", a, a.String(), got)
		}
	}
}

func TestParseAlgorithmUnknown(t *testing.T) {
	if _, err := ParseAlgorithm("push-pull"); err == nil {
		t.Error("unknown algorithm name should fail")
	}
	if s := Algorithm(42).String(); s != "Algorithm(42)" {
		t.Errorf("unknown algorithm String() = %q", s)
	}
}

func TestParseTopologyKindRoundTrip(t *testing.T) {
	kinds := []TopologyKind{
		Cycle, Path, Complete, Star, DoubleStar,
		Grid, Hypercube, GNP, RandomRegular, Barbell,
		RandomGeometric, PreferentialAttachment,
		MobileWaypoint, MobileLevy, MobileGroup, MobileCommuter,
	}
	for _, k := range kinds {
		got, err := ParseTopologyKind(k.String())
		if err != nil {
			t.Errorf("%v: %v", k, err)
			continue
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
}

func TestParseTopologyKindUnknown(t *testing.T) {
	if _, err := ParseTopologyKind("smallworld"); err == nil {
		t.Error("unknown topology name should fail")
	}
	if s := TopologyKind(42).String(); s != "TopologyKind(42)" {
		t.Errorf("unknown kind String() = %q", s)
	}
}

// TestEveryTopologyKindInspectable: each named family must build and its
// round-1 graph be measurable in the paper's parameters — Δ, D and α — at
// some valid size (hypercube needs a power of two; the rest take 16).
func TestEveryTopologyKindInspectable(t *testing.T) {
	kinds := []TopologyKind{
		Cycle, Path, Complete, Star, DoubleStar,
		Grid, Hypercube, GNP, RandomRegular, Barbell,
		RandomGeometric, PreferentialAttachment,
		MobileWaypoint, MobileLevy, MobileGroup, MobileCommuter,
	}
	for _, k := range kinds {
		dyn, err := (Topology{Kind: k}).Build(16, 0, 1)
		if err != nil {
			t.Errorf("%v: %v", k, err)
			continue
		}
		g := dyn.At(1)
		diam, err := g.Diameter()
		alpha, exact := g.ExactVertexExpansion()
		if err != nil || !exact || g.N() != 16 || g.MaxDegree() < 1 || diam < 1 || alpha <= 0 {
			t.Errorf("%v: implausible graph: n %d, Δ %d, D %d (%v), α %v (exact %v)",
				k, g.N(), g.MaxDegree(), diam, err, alpha, exact)
		}
	}
}

// TestInspectKnownFamilies pins Δ, D and α of a built topology's round-1
// graph on families small enough (n ≤ 22) for α to be computed exactly.
// The double star is the paper's Ω(Δ²) lower-bound construction: half the
// vertices hang off each of two adjacent hubs.
func TestInspectKnownFamilies(t *testing.T) {
	cases := []struct {
		kind        TopologyKind
		n           int
		delta, diam int
		alpha       float64
	}{
		{Cycle, 16, 2, 8, 4.0 / 16},
		{Complete, 10, 9, 1, 1},
		// Star α: the minimizing S is ⌊n/2⌋ leaves, whose boundary is just
		// the hub — α = 1/6 at n = 12.
		{Star, 12, 11, 2, 1.0 / 6},
		{DoubleStar, 16, 8, 3, 1.0 / 8},
	}
	for _, tc := range cases {
		dyn, err := (Topology{Kind: tc.kind}).Build(tc.n, 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		g := dyn.At(1)
		diam, err := g.Diameter()
		alpha, exact := g.ExactVertexExpansion()
		if err != nil || g.N() != tc.n || g.MaxDegree() != tc.delta || diam != tc.diam {
			t.Errorf("%v: n, Δ, D = %d, %d, %d (%v), want %d, %d, %d",
				tc.kind, g.N(), g.MaxDegree(), diam, err, tc.n, tc.delta, tc.diam)
		}
		if !exact || math.Abs(alpha-tc.alpha) > 1e-9 {
			t.Errorf("%v: α = %v (exact %v), want exactly %v", tc.kind, alpha, exact, tc.alpha)
		}
	}
}

// TestInspectLargeUsesEstimate: above n = 22 α is not enumerated, and the
// randomized estimate of a 4-regular graph's α lies in (0, 2].
func TestInspectLargeUsesEstimate(t *testing.T) {
	dyn, err := (Topology{Kind: RandomRegular, Degree: 4}).Build(64, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := dyn.At(1)
	if _, exact := g.ExactVertexExpansion(); exact {
		t.Error("n = 64 should not be enumerated exactly")
	}
	if alpha := g.EstimateVertexExpansion(2000, prand.New(3)); alpha <= 0 || alpha > 2 {
		t.Errorf("α estimate %v out of range", alpha)
	}
	if g.MaxDegree() != 4 {
		t.Errorf("Δ = %d, want 4 on a 4-regular graph", g.MaxDegree())
	}
}

// TestInspectPropagatesBuildErrors: a family that cannot be built fails
// Build, static or dynamic, and hands back no schedule whose graphs could
// be measured.
func TestInspectPropagatesBuildErrors(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		n    int
	}{
		{Topology{Kind: Hypercube}, 10},
		{Topology{Kind: TopologyKind(99)}, 8},
	} {
		for _, tau := range []int{0, 1} {
			if dyn, err := tc.topo.Build(tc.n, tau, 1); err == nil || dyn != nil {
				t.Errorf("%v on n = %d, τ = %d: Build = %v, %v; want an error and no schedule",
					tc.topo.Kind, tc.n, tau, dyn, err)
			}
		}
	}
}
