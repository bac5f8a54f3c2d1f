package dyngraph

import (
	"testing"

	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

func TestStatic(t *testing.T) {
	g := graph.Cycle(10)
	d := NewStatic(g)
	if d.N() != 10 || d.Stability() != Infinite {
		t.Fatalf("static: n=%d τ=%d", d.N(), d.Stability())
	}
	for _, r := range []int{1, 5, 1000000} {
		if d.At(r) != g {
			t.Fatalf("round %d: static graph changed", r)
		}
	}
}

func TestRegenStabilityRespected(t *testing.T) {
	// Within an epoch of τ rounds the topology must not change; across
	// epochs it must (w.h.p. for the rotating ring on n=20).
	d := RotatingRing(20, 5, 42)
	if d.Stability() != 5 {
		t.Fatalf("τ = %d", d.Stability())
	}
	for epoch := 0; epoch < 4; epoch++ {
		base := d.At(epoch*5 + 1)
		for r := epoch*5 + 1; r <= epoch*5+5; r++ {
			if d.At(r) != base {
				t.Fatalf("topology changed mid-epoch at round %d", r)
			}
		}
	}
	if sameEdges(d.At(1), d.At(6)) && sameEdges(d.At(6), d.At(11)) {
		t.Fatal("rotating ring never rotated across three epochs")
	}
}

func TestRegenDeterministicAcrossInstances(t *testing.T) {
	a := RotatingRing(15, 3, 7)
	b := RotatingRing(15, 3, 7)
	for r := 1; r <= 12; r++ {
		if !sameEdges(a.At(r), b.At(r)) {
			t.Fatalf("round %d: same seed produced different topologies", r)
		}
	}
}

func TestRegenDifferentSeedsDiffer(t *testing.T) {
	a := RotatingRing(15, 1, 1)
	b := RotatingRing(15, 1, 2)
	same := 0
	for r := 1; r <= 10; r++ {
		if sameEdges(a.At(r), b.At(r)) {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRegenCacheEviction(t *testing.T) {
	d := RotatingRing(10, 1, 3)
	// Visit many epochs; cache must stay bounded and still be re-derivable.
	g50 := d.At(50)
	for r := 51; r < 100; r++ {
		d.At(r)
	}
	if !sameEdges(g50, d.At(50)) {
		t.Fatal("re-derived epoch graph differs from original")
	}
}

func TestAllSchedulesConnected(t *testing.T) {
	schedules := []Dynamic{
		NewRegen(20, 1, 1, "gnp", func(_ int, rng *prand.RNG) *graph.Graph { return graph.GNP(20, 0.15, rng) }),
		RotatingRing(20, 1, 2),
		RotatingRegular(20, 3, 2, 4),
		NewStatic(graph.Grid(4, 5)),
	}
	for _, d := range schedules {
		for r := 1; r <= 15; r++ {
			g := d.At(r)
			if !g.Connected() {
				t.Fatalf("%s round %d: disconnected", d.Name(), r)
			}
			if g.N() != d.N() {
				t.Fatalf("%s: vertex count changed", d.Name())
			}
		}
	}
}

func TestAlphaAndMaxDegree(t *testing.T) {
	rng := prand.New(11)
	s := NewStatic(graph.Cycle(16))
	a := Alpha(s, 10, 20, rng)
	if a <= 0 || a > 0.25+1e-9 { // ring α = 4/n = 0.25
		t.Fatalf("static ring alpha = %f", a)
	}
	if MaxDegree(s, 10) != 2 {
		t.Fatalf("static ring Δ = %d", MaxDegree(s, 10))
	}

	d := NewRegen(16, 2, 5, "doublestar", func(int, *prand.RNG) *graph.Graph { return graph.DoubleStar(16) })
	if dd := MaxDegree(d, 5); dd < 7 {
		t.Fatalf("regenerated double star Δ = %d", dd)
	}
	if a := Alpha(d, 5, 20, rng); a <= 0 || a > 1.1 {
		t.Fatalf("regenerated double star α = %f", a)
	}
}

func TestAtRoundZeroClamped(t *testing.T) {
	d := RotatingRing(10, 3, 1)
	if !sameEdges(d.At(0), d.At(1)) {
		t.Fatal("At(0) should clamp to round 1")
	}
}

// sameEdges reports whether two graphs have identical edge sets.
func sameEdges(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e[0], e[1]) {
			return false
		}
	}
	return true
}
