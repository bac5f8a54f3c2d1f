package leader

import (
	"slices"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
)

func seqIDs(n int) ([]int, []uint64) {
	ids := make([]int, n)
	pay := make([]uint64, n)
	for i := range ids {
		ids[i] = i + 1
		pay[i] = uint64(1000 + i)
	}
	return ids, pay
}

func TestElectsMinOnStaticGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(20), graph.Star(20), graph.Complete(20),
		graph.DoubleStar(20), graph.Grid(4, 5),
	} {
		ids, pay := seqIDs(20)
		p := New(ids, pay)
		res, err := mtm.NewEngine(dyngraph.NewStatic(g), p, mtm.Config{Seed: 1, MaxRounds: 1 << 18}).Run()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !res.Completed || !electedMin(p) {
			t.Fatalf("%s: did not elect min (rounds=%d)", g.Name(), res.Rounds)
		}
		// Every node must now carry the minimum's payload.
		for u := 0; u < 20; u++ {
			if p.Payload(u) != 1000 {
				t.Fatalf("%s: node %d payload %d, want 1000", g.Name(), u, p.Payload(u))
			}
		}
	}
}

func TestElectsMinOnDynamicGraph(t *testing.T) {
	// τ = 1: the topology re-wires every round (the harsh regime of §5).
	ids, pay := seqIDs(24)
	p := New(ids, pay)
	dyn := dyngraph.RotatingRing(24, 1, 77)
	res, err := mtm.NewEngine(dyn, p, mtm.Config{Seed: 2, MaxRounds: 1 << 18}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !electedMin(p) {
		t.Fatalf("dynamic election failed after %d rounds", res.Rounds)
	}
}

func TestNonContiguousIDs(t *testing.T) {
	ids := []int{907, 12, 445, 3000, 101, 12 + 1}
	pay := []uint64{9, 1, 4, 30, 10, 13}
	p := New(ids, pay)
	res, err := mtm.NewEngine(dyngraph.NewStatic(graph.Complete(6)), p,
		mtm.Config{Seed: 3, MaxRounds: 1 << 16}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not converge")
	}
	for u := 0; u < 6; u++ {
		if p.cand[u] != 12 || p.Payload(u) != 1 {
			t.Fatalf("node %d: cand=%d payload=%d", u, p.cand[u], p.Payload(u))
		}
	}
}

func TestCandidatesMonotoneNonIncreasing(t *testing.T) {
	ids, pay := seqIDs(16)
	p := New(ids, pay)
	prev := make([]int, 16)
	for u := range prev {
		prev[u] = p.cand[u]
	}
	eng := mtm.NewEngine(dyngraph.NewStatic(graph.Cycle(16)), p, mtm.Config{Seed: 4, MaxRounds: 1 << 16})
	for !eng.Finished() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 16; u++ {
			if p.cand[u] > prev[u] {
				t.Fatalf("round %d: node %d candidate increased %d -> %d",
					eng.Round(), u, prev[u], p.cand[u])
			}
			prev[u] = p.cand[u]
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateBitProperties(t *testing.T) {
	// Same candidate ⇒ same bit (any round); different candidates ⇒ bits
	// differ in ≈ half the rounds.
	diff := 0
	const rounds = 20000
	for r := 1; r <= rounds; r++ {
		if CandidateBit(r, 5) != CandidateBit(r, 5) {
			t.Fatal("bit not a function of (round, candidate)")
		}
		if CandidateBit(r, 5) != CandidateBit(r, 9) {
			diff++
		}
	}
	if diff < rounds/2-600 || diff > rounds/2+600 {
		t.Fatalf("differing-candidate bit disagreement %d/%d far from 1/2", diff, rounds)
	}
}

func TestConvergedAndElectedMin(t *testing.T) {
	p := New([]int{3, 1, 2}, []uint64{30, 10, 20})
	if p.Converged() {
		t.Fatal("fresh instance converged")
	}
	p.cand = []int{2, 2, 2} // converged but not to min
	if !p.Converged() {
		t.Fatal("identical candidates not converged")
	}
	if electedMin(p) {
		t.Fatal("electedMin true for non-minimum convergence")
	}
	p.cand = []int{1, 1, 1}
	if !electedMin(p) {
		t.Fatal("electedMin false for minimum convergence")
	}
}

func TestScalingWithN(t *testing.T) {
	// Convergence time on K_n must stay polylog — sanity guard for the
	// SimSharedBit additive term (E10).
	measure := func(n int) int {
		ids, pay := seqIDs(n)
		p := New(ids, pay)
		res, err := mtm.NewEngine(dyngraph.NewStatic(graph.Complete(n)), p,
			mtm.Config{Seed: 5, MaxRounds: 1 << 18}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	r16, r128 := measure(16), measure(128)
	if float64(r128) > 6*float64(r16)+64 {
		t.Fatalf("K_n election not polylog: %d (n=16) vs %d (n=128)", r16, r128)
	}
}

// electedMin reports whether every candidate is the minimum UID — the
// BitConvergence guarantee.
func electedMin(p *Protocol) bool { return p.Converged() && p.cand[0] == slices.Min(p.ids) }
