package graph

import (
	"testing"
	"testing/quick"

	"mobilegossip/internal/prand"
)

func TestBoundaryBipartiteStructure(t *testing.T) {
	// Cycle 0-1-2-3-4-5: S = {0, 1, 2} has crossing edges 2-3 and 0-5.
	g := Cycle(6)
	b := g.BoundaryBipartite([]int{0, 1, 2})
	if len(b.Left) != 2 {
		t.Fatalf("left side has %d vertices, want 2 (vertex 1 has no crossing edge)", len(b.Left))
	}
	if len(b.Right) != 2 {
		t.Fatalf("right side has %d vertices, want 2", len(b.Right))
	}
	if got := b.MaximumMatching(); got != 2 {
		t.Errorf("ν = %d, want 2", got)
	}
}

func TestMaximumMatchingKnownCases(t *testing.T) {
	// Star: any S of leaves matches only through the hub → ν = 1.
	star := Star(8)
	if got := star.BoundaryBipartite([]int{1, 2, 3}).MaximumMatching(); got != 1 {
		t.Errorf("star leaves: ν = %d, want 1", got)
	}
	// Star: S = {hub} → ν = 1 (hub matches one leaf).
	if got := star.BoundaryBipartite([]int{0}).MaximumMatching(); got != 1 {
		t.Errorf("star hub: ν = %d, want 1", got)
	}
	// Complete graph: S of size m ≤ n/2 matches fully → ν = m.
	k := Complete(10)
	if got := k.BoundaryBipartite([]int{0, 1, 2, 3}).MaximumMatching(); got != 4 {
		t.Errorf("complete: ν = %d, want 4", got)
	}
	// Path 0-1-2-3: S = {1, 2} crosses at both ends → ν = 2.
	p := Path(4)
	if got := p.BoundaryBipartite([]int{1, 2}).MaximumMatching(); got != 2 {
		t.Errorf("path middle: ν = %d, want 2", got)
	}
	// Empty and full S have empty boundaries.
	if got := k.BoundaryBipartite(nil).MaximumMatching(); got != 0 {
		t.Errorf("empty S: ν = %d, want 0", got)
	}
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	if got := k.BoundaryBipartite(all).MaximumMatching(); got != 0 {
		t.Errorf("S = V: ν = %d, want 0", got)
	}
}

// TestMatchingAgainstBruteForce cross-checks Hopcroft–Karp against an
// exhaustive augmenting-path search on small random graphs.
func TestMatchingAgainstBruteForce(t *testing.T) {
	rng := prand.New(7)
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(6)
		g := GNP(n, 0.5, rng)
		m := 1 + rng.Intn(n/2)
		seen := make(map[int]bool)
		var s []int
		for len(s) < m {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		b := g.BoundaryBipartite(s)
		want := bruteForceMatching(b)
		if got := b.MaximumMatching(); got != want {
			t.Fatalf("trial %d (n=%d, |S|=%d): HK=%d brute=%d", trial, n, m, got, want)
		}
	}
}

// bruteForceMatching finds the maximum matching by simple augmenting-path
// search (Kuhn's algorithm) — O(V·E) but obviously correct.
func bruteForceMatching(b *Bipartite) int {
	nr := len(b.Right)
	matchR := make([]int, nr)
	for j := range matchR {
		matchR[j] = -1
	}
	var try func(i int, visited []bool) bool
	try = func(i int, visited []bool) bool {
		for _, j := range b.Adj[i] {
			if visited[j] {
				continue
			}
			visited[j] = true
			if matchR[j] == -1 || try(matchR[j], visited) {
				matchR[j] = i
				return true
			}
		}
		return false
	}
	size := 0
	for i := range b.Left {
		if try(i, make([]bool, nr)) {
			size++
		}
	}
	return size
}

// TestLemma71OnSmallGraphs: ν(B_G(S)) ≥ |S|·α/4 for every S with
// |S| ≤ n/2 — checked exhaustively on small graphs with exact α.
func TestLemma71OnSmallGraphs(t *testing.T) {
	graphs := []*Graph{
		Cycle(10), Complete(8), Star(10), DoubleStar(10), Grid(3, 3),
		RandomRegular(10, 4, prand.New(3)),
	}
	for _, g := range graphs {
		alpha, ok := g.ExactVertexExpansion()
		if !ok {
			t.Fatalf("%s: exact α unavailable", g.Name())
		}
		n := g.N()
		for mask := 1; mask < 1<<uint(n); mask++ {
			var s []int
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					s = append(s, v)
				}
			}
			if len(s) > n/2 {
				continue
			}
			nu := g.BoundaryBipartite(s).MaximumMatching()
			if bound := float64(len(s)) * alpha / 4; float64(nu) < bound {
				t.Fatalf("%s: S=%v has ν=%d < |S|·α/4 = %.3f", g.Name(), s, nu, bound)
			}
		}
	}
}

// TestMatchingQuickNeverExceedsSides: ν is bounded by both side sizes and
// by the number of edges (sanity under random fuzz).
func TestMatchingQuickNeverExceedsSides(t *testing.T) {
	rng := prand.New(99)
	f := func(seed uint16) bool {
		n := 5 + int(seed%12)
		g := GNP(n, 0.4, rng)
		m := 1 + int(seed)%(n/2)
		s := rng.Perm(n)[:m]
		b := g.BoundaryBipartite(s)
		nu := b.MaximumMatching()
		if nu < 0 || nu > len(b.Left) || nu > len(b.Right) {
			t.Logf("ν=%d outside [0, min(%d, %d)]", nu, len(b.Left), len(b.Right))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
