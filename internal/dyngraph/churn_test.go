package dyngraph

import (
	"testing"

	"mobilegossip/internal/graph"
)

func TestNewSequenceValidation(t *testing.T) {
	ring := graph.Cycle(8)
	if _, err := NewSequence(0, "bad", ring); err == nil {
		t.Error("tau=0 should be rejected")
	}
	if _, err := NewSequence(1, "bad"); err == nil {
		t.Error("empty sequence should be rejected")
	}
	if _, err := NewSequence(1, "bad", ring, graph.Cycle(9)); err == nil {
		t.Error("mismatched vertex counts should be rejected")
	}
	disconnected := graph.NewBuilder(4).Build("disc")
	if _, err := NewSequence(1, "bad", disconnected); err == nil {
		t.Error("disconnected graph should be rejected")
	}
}

func TestSequenceEpochScheduleAndClamp(t *testing.T) {
	g1, g2 := graph.Cycle(6), graph.Complete(6)
	seq, err := NewSequence(3, "pair", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if seq.tau != 3 {
		t.Errorf("stability = %d, want 3", seq.tau)
	}
	if seq.N() != 6 {
		t.Errorf("n = %d, want 6", seq.N())
	}
	if len(seq.graphs) != 2 {
		t.Errorf("epochs = %d, want 2", len(seq.graphs))
	}
	for r := 1; r <= 3; r++ {
		if got := seq.At(r); got != g1 {
			t.Errorf("round %d: got %s, want first graph", r, got.Name())
		}
	}
	// Rounds 4.. are the second epoch, then clamped forever.
	for _, r := range []int{4, 6, 7, 100} {
		if got := seq.At(r); got != g2 {
			t.Errorf("round %d: got %s, want second graph", r, got.Name())
		}
	}
	if got := seq.At(0); got != g1 {
		t.Errorf("round 0 clamps to first graph, got %s", got.Name())
	}
}

func TestGradualChurnValidation(t *testing.T) {
	if _, err := GradualChurn(2, 1, 4, 0.5, 1); err == nil {
		t.Error("n=2 should be rejected")
	}
	if _, err := GradualChurn(8, 1, 0, 0.5, 1); err == nil {
		t.Error("epochs=0 should be rejected")
	}
	if _, err := GradualChurn(8, 1, 4, -0.1, 1); err == nil {
		t.Error("negative rewire should be rejected")
	}
	if _, err := GradualChurn(8, 1, 4, 1.1, 1); err == nil {
		t.Error("rewire > 1 should be rejected")
	}
}

func TestGradualChurnEveryEpochConnected(t *testing.T) {
	seq, err := GradualChurn(16, 2, 20, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < len(seq.graphs); e++ {
		g := seq.At(e*2 + 1)
		if !g.Connected() {
			t.Fatalf("epoch %d disconnected", e)
		}
		if g.N() != 16 {
			t.Fatalf("epoch %d has %d vertices", e, g.N())
		}
		// Backbone ring must always be present.
		for u := 0; u < 16; u++ {
			if !g.HasEdge(u, (u+1)%16) {
				t.Fatalf("epoch %d missing backbone edge %d-%d", e, u, (u+1)%16)
			}
		}
	}
}

func TestGradualChurnRewireZeroIsStaticChain(t *testing.T) {
	seq, err := GradualChurn(12, 1, 10, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	first := seq.At(1)
	for r := 2; r <= 10; r++ {
		g := seq.At(r)
		if g.NumEdges() != first.NumEdges() {
			t.Fatalf("round %d: edge count changed with rewire=0", r)
		}
		for _, e := range first.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("round %d: edge %v vanished with rewire=0", r, e)
			}
		}
	}
}

func TestGradualChurnDeterministicInSeed(t *testing.T) {
	a, err := GradualChurn(14, 1, 8, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GradualChurn(14, 1, 8, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 8; r++ {
		ga, gb := a.At(r), b.At(r)
		if ga.NumEdges() != gb.NumEdges() {
			t.Fatalf("round %d: edge counts differ", r)
		}
		for _, e := range ga.Edges() {
			if !gb.HasEdge(e[0], e[1]) {
				t.Fatalf("round %d: edge %v differs across identical seeds", r, e)
			}
		}
	}
}

func TestGradualChurnRewireActuallyChangesChords(t *testing.T) {
	seq, err := GradualChurn(20, 1, 2, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := seq.At(1), seq.At(2)
	changed := 0
	for _, e := range g1.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			changed++
		}
	}
	if changed == 0 {
		t.Error("rewire=1 produced identical consecutive epochs")
	}
}
