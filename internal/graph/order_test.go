package graph

import (
	"testing"

	"mobilegossip/internal/prand"
)

func isPermutation(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for old, nw := range perm {
		if nw < 0 || nw >= n || seen[nw] {
			t.Fatalf("perm[%d] = %d is not a bijection", old, nw)
		}
		seen[nw] = true
	}
}

func TestBFSOrderIsPermutation(t *testing.T) {
	for _, g := range []*Graph{
		Cycle(17), Star(9), Complete(6), Path(1),
		RandomRegular(200, 4, prand.New(3)),
	} {
		perm := BFSOrder(g)
		isPermutation(t, perm, g.N())
		// Relabeling by a permutation preserves the degree multiset and
		// connectivity.
		rg := g.Relabel(perm, g.Name()+"+bfs")
		if rg.NumEdges() != g.NumEdges() || rg.Connected() != g.Connected() {
			t.Fatalf("%s: relabel changed structure", g.Name())
		}
	}
}

func TestBFSOrderHandlesDisconnected(t *testing.T) {
	// Two triangles, no edge between them.
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build("twotriangles")
	perm := BFSOrder(g)
	isPermutation(t, perm, 6)
	// First component fills ranks 0..2 before the second starts.
	for _, u := range []int{0, 1, 2} {
		if perm[u] > 2 {
			t.Fatalf("component 0 vertex %d ranked %d", u, perm[u])
		}
	}
}

func TestBFSOrderLocality(t *testing.T) {
	// On a cycle, BFS numbering from 0 must make most edges short-range:
	// the relabeled cycle has every edge within distance 2 of its endpoint.
	g := Cycle(100)
	rg := g.Relabel(BFSOrder(g), "c+bfs")
	for u := 0; u < rg.N(); u++ {
		for _, v := range rg.Adjacency(u) {
			d := int(v) - u
			if d < 0 {
				d = -d
			}
			if d > 2 && d < rg.N()-2 {
				t.Fatalf("edge (%d,%d) spans %d after BFS relabel", u, v, d)
			}
		}
	}
}

func TestDegreeOrder(t *testing.T) {
	g := Star(8) // hub 0 degree 7, leaves degree 1
	perm := DegreeOrder(g)
	isPermutation(t, perm, 8)
	if perm[0] != 0 {
		t.Fatalf("hub ranked %d, want 0", perm[0])
	}
	// Leaves keep their relative order (stable ties).
	for u := 2; u < 8; u++ {
		if perm[u] != perm[u-1]+1 {
			t.Fatalf("tie order broken: perm[%d]=%d perm[%d]=%d", u-1, perm[u-1], u, perm[u])
		}
	}
}
