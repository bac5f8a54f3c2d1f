package graph

import (
	"math"
	"testing"
	"testing/quick"

	"mobilegossip/internal/prand"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := b.AddEdge(0, 2); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 0)
	g := b.Build("dup")
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestPathProperties(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.NumEdges() != 4 {
		t.Fatalf("path(5): n=%d m=%d", g.N(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("path disconnected")
	}
	if d, _ := g.Diameter(); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("Δ = %d, want 2", g.MaxDegree())
	}
}

func TestCycleProperties(t *testing.T) {
	g := Cycle(8)
	if g.NumEdges() != 8 || g.MaxDegree() != 2 {
		t.Fatalf("cycle(8): m=%d Δ=%d", g.NumEdges(), g.MaxDegree())
	}
	if d, _ := g.Diameter(); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	for u := 0; u < 8; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("vertex %d degree %d", u, g.Degree(u))
		}
	}
	// Small n degrades to path.
	if Cycle(2).NumEdges() != 1 {
		t.Error("cycle(2) should be an edge")
	}
}

func TestCompleteProperties(t *testing.T) {
	g := Complete(6)
	if g.NumEdges() != 15 || g.MaxDegree() != 5 {
		t.Fatalf("K6: m=%d Δ=%d", g.NumEdges(), g.MaxDegree())
	}
	if d, _ := g.Diameter(); d != 1 {
		t.Fatalf("K6 diameter = %d", d)
	}
}

func TestStarProperties(t *testing.T) {
	g := Star(10)
	if g.MaxDegree() != 9 || g.NumEdges() != 9 {
		t.Fatalf("star(10): Δ=%d m=%d", g.MaxDegree(), g.NumEdges())
	}
	if d, _ := g.Diameter(); d != 2 {
		t.Fatalf("star diameter = %d", d)
	}
}

func TestDoubleStarProperties(t *testing.T) {
	g := DoubleStar(12)
	if !g.Connected() {
		t.Fatal("double star disconnected")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("hubs not joined")
	}
	// Leaves have degree 1; hubs have high degree.
	for u := 2; u < 12; u++ {
		if g.Degree(u) != 1 {
			t.Fatalf("leaf %d degree %d", u, g.Degree(u))
		}
	}
	if d, _ := g.Diameter(); d != 3 {
		t.Fatalf("double star diameter = %d, want 3", d)
	}
	// Hubs split leaves roughly evenly — Δ ≈ n/2 as in the paper's Ω(Δ²)
	// construction.
	if g.MaxDegree() < 5 || g.MaxDegree() > 7 {
		t.Fatalf("hub degree %d not ≈ n/2", g.MaxDegree())
	}
}

func TestGridProperties(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.NumEdges() != 3*3+2*4 {
		t.Fatalf("grid(3,4): n=%d m=%d", g.N(), g.NumEdges())
	}
	if d, _ := g.Diameter(); d != 5 {
		t.Fatalf("grid diameter = %d, want 5", d)
	}
}

func TestHypercubeProperties(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.MaxDegree() != 4 {
		t.Fatalf("Q4: n=%d Δ=%d", g.N(), g.MaxDegree())
	}
	if d, _ := g.Diameter(); d != 4 {
		t.Fatalf("Q4 diameter = %d", d)
	}
	if g.NumEdges() != 32 {
		t.Fatalf("Q4 edges = %d, want 32", g.NumEdges())
	}
}

func TestBarbellProperties(t *testing.T) {
	g := Barbell(5, 3)
	if !g.Connected() {
		t.Fatal("barbell disconnected")
	}
	if g.N() != 12 {
		t.Fatalf("barbell n = %d, want 12", g.N())
	}
	// Two K5s contribute 2*10 edges plus 3 path edges.
	if g.NumEdges() != 23 {
		t.Fatalf("barbell m = %d, want 23", g.NumEdges())
	}
	// pathLen=1 joins the cliques directly.
	g1 := Barbell(4, 1)
	if !g1.Connected() || g1.N() != 8 {
		t.Fatalf("barbell(4,1) wrong: n=%d", g1.N())
	}
}

func TestGNPConnected(t *testing.T) {
	rng := prand.New(1)
	for _, p := range []float64{0.01, 0.1, 0.5} {
		g := GNP(40, p, rng)
		if !g.Connected() {
			t.Fatalf("GNP(40,%f) not connected", p)
		}
		if g.N() != 40 {
			t.Fatalf("GNP n = %d", g.N())
		}
	}
}

func TestRandomRegularProperties(t *testing.T) {
	rng := prand.New(2)
	for _, d := range []int{3, 4, 6} {
		g := RandomRegular(30, d, rng)
		if !g.Connected() {
			t.Fatalf("regular(30,%d) disconnected", d)
		}
		for u := 0; u < g.N(); u++ {
			if g.Degree(u) != d {
				// Circulant fallback has degree 2*ceil(d/2); accept that too.
				if g.Degree(u) != 2*((d+1)/2) {
					t.Fatalf("regular(30,%d): vertex %d degree %d", d, u, g.Degree(u))
				}
			}
		}
	}
}

func TestRandomRegularOddProduct(t *testing.T) {
	// n*d odd must be repaired, not looped forever.
	g := RandomRegular(9, 3, prand.New(3))
	if !g.Connected() {
		t.Fatal("regular(9,3) fallback disconnected")
	}
}

func TestCirculantConnected(t *testing.T) {
	for _, n := range []int{5, 16, 33} {
		g := Circulant(n, 4)
		if !g.Connected() {
			t.Fatalf("circulant(%d,4) disconnected", n)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(2, 3)
	g := b.Build("two-components")
	if _, err := g.Diameter(); err != ErrDisconnected {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestBoundarySize(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	cases := []struct {
		s    []int
		want int
	}{
		{[]int{0}, 1}, {[]int{2}, 2}, {[]int{0, 1}, 1},
		{[]int{1, 3}, 3}, {[]int{0, 1, 2, 3, 4}, 0},
	}
	for _, c := range cases {
		if got := g.BoundarySize(c.s); got != c.want {
			t.Errorf("BoundarySize(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestExactVertexExpansionKnownValues(t *testing.T) {
	cases := []struct {
		g    *Graph
		want float64
	}{
		// K_n: |∂S| = n−|S|, minimized at |S| = ⌊n/2⌋.
		{Complete(6), 1.0},
		{Complete(7), 4.0 / 3.0},
		// Cycle C_8: contiguous arc of 4 has boundary 2 → α = 1/2.
		{Cycle(8), 0.5},
		// Path P_8: prefix of 4 has boundary 1 → α = 1/4.
		{Path(8), 0.25},
		// Star S_8: 4 leaves have boundary {hub} → α = 1/4.
		{Star(8), 0.25},
	}
	for _, c := range cases {
		got, ok := c.g.ExactVertexExpansion()
		if !ok {
			t.Fatalf("%s: exact expansion refused", c.g.Name())
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: α = %f, want %f", c.g.Name(), got, c.want)
		}
	}
}

func TestExactVertexExpansionBounds(t *testing.T) {
	// 0 < α(G) <= ⌈n/2⌉/⌊n/2⌋ for every connected graph. (The paper's
	// remark that α ≤ 1 holds for even n; for odd n the ⌊n/2⌋-subset bound
	// gives the slightly weaker ratio, e.g. α(K₅) = 3/2.)
	rng := prand.New(4)
	graphs := []*Graph{
		Cycle(9), Star(11), DoubleStar(10), Grid(3, 3), Hypercube(3),
		GNP(12, 0.3, rng), Complete(5), Barbell(4, 2),
	}
	for _, g := range graphs {
		a, ok := g.ExactVertexExpansion()
		if !ok {
			t.Fatalf("%s: refused", g.Name())
		}
		n := g.N()
		limit := float64((n+1)/2) / float64(n/2)
		if a <= 0 || a > limit+1e-9 {
			t.Errorf("%s: α = %f outside (0,%f]", g.Name(), a, limit)
		}
	}
}

func TestExactVertexExpansionRefusesLarge(t *testing.T) {
	if _, ok := Cycle(30).ExactVertexExpansion(); ok {
		t.Fatal("exact expansion should refuse n=30")
	}
}

func TestEstimateVertexExpansionUpperBounds(t *testing.T) {
	// The estimate must upper-bound the true α; on small graphs it equals it.
	rng := prand.New(5)
	for _, g := range []*Graph{Cycle(12), Star(14), Grid(4, 4)} {
		exact, _ := g.ExactVertexExpansion()
		est := g.EstimateVertexExpansion(50, rng)
		if est < exact-1e-9 {
			t.Errorf("%s: estimate %f below exact %f", g.Name(), est, exact)
		}
		if est > exact+1e-9 {
			t.Errorf("%s: estimate %f should match exact for small n", g.Name(), est)
		}
	}
}

func TestEstimateVertexExpansionLargeRing(t *testing.T) {
	// For C_n the BFS-ball candidates find α = 2/(n/2) = 4/n exactly.
	g := Cycle(100)
	est := g.EstimateVertexExpansion(20, prand.New(6))
	if math.Abs(est-0.04) > 1e-9 {
		t.Fatalf("ring estimate α = %f, want 0.04", est)
	}
}

func TestDiameterVsExpansionTheorem62(t *testing.T) {
	// Theorem 6.2: D = O(log n / α). Verify D ≤ c·(ln n)/α + 2 with a small
	// constant across families (E13's unit-level check).
	rng := prand.New(7)
	graphs := []*Graph{
		Cycle(16), Path(16), Star(16), Grid(4, 4), Hypercube(4),
		Complete(12), GNP(18, 0.4, rng), DoubleStar(14),
	}
	for _, g := range graphs {
		a, ok := g.ExactVertexExpansion()
		if !ok {
			t.Fatalf("%s refused", g.Name())
		}
		d, err := g.Diameter()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		bound := 2*math.Log(float64(g.N()))/a + 2
		if float64(d) > bound {
			t.Errorf("%s: D=%d exceeds 2·ln(n)/α+2 = %f (α=%f)", g.Name(), d, bound, a)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := Grid(3, 3)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() len %d != NumEdges %d", len(edges), g.NumEdges())
	}
	for _, e := range edges {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Fatalf("edge %v not reported by HasEdge", e)
		}
	}
}

func TestGeneratorsConnectedProperty(t *testing.T) {
	// Property: every generator yields a connected graph for random sizes.
	f := func(seed uint64, raw uint8) bool {
		n := 3 + int(raw%30)
		rng := prand.New(seed)
		gs := []*Graph{
			Path(n), Cycle(n), Complete(n), Star(n), DoubleStar(n),
			GNP(n, 0.2, rng), RandomRegular(n, 3, rng), Circulant(n, 4),
		}
		for _, g := range gs {
			if !g.Connected() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
