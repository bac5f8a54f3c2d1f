package mobilegossip

import (
	"strings"
	"testing"
)

// TestEnumerators pins Algorithms/TopologyKinds as the
// single source of truth: every enumerated value round-trips through
// String/Parse, every registered name is enumerated, and unknown-name
// errors list the valid names so the CLI user never has to guess.
func TestEnumerators(t *testing.T) {
	algs := Algorithms()
	if len(algs) != len(algNames) {
		t.Errorf("Algorithms() has %d entries, registry has %d", len(algs), len(algNames))
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
	if len(kinds) != len(kindNames) {
		t.Errorf("TopologyKinds() has %d entries, registry has %d", len(kinds), len(kindNames))
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

// TestEveryTopologyKindInspectable: each named family must build and be
// measurable at some valid size (hypercube needs a power of two; the rest
// take 16).
func TestEveryTopologyKindInspectable(t *testing.T) {
	kinds := []TopologyKind{
		Cycle, Path, Complete, Star, DoubleStar,
		Grid, Hypercube, GNP, RandomRegular, Barbell,
		RandomGeometric, PreferentialAttachment,
		MobileWaypoint, MobileLevy, MobileGroup, MobileCommuter,
	}
	for _, k := range kinds {
		info, err := (Topology{Kind: k}).Inspect(16, 1)
		if err != nil {
			t.Errorf("%v: %v", k, err)
			continue
		}
		if info.N != 16 || info.MaxDegree < 1 || info.Diameter < 1 || info.Alpha <= 0 {
			t.Errorf("%v: implausible info %+v", k, info)
		}
	}
}
