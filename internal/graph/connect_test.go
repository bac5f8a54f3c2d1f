package graph

import (
	"testing"

	"mobilegossip/internal/prand"
)

func packedList(edges ...[2]int32) []uint64 {
	out := make([]uint64, 0, len(edges))
	for _, e := range edges {
		out = append(out, PackEdge(e[0], e[1]))
	}
	return out
}

func TestPackUnpackEdge(t *testing.T) {
	if PackEdge(3, 1) != PackEdge(1, 3) {
		t.Fatal("PackEdge is not orientation-canonical")
	}
	if got := UnpackEdge(PackEdge(7, 2)); got != [2]int32{2, 7} {
		t.Fatalf("round trip = %v", got)
	}
}

func TestAppendPackedEdgesSortedAndComplete(t *testing.T) {
	rng := prand.New(7)
	g := GNP(64, 0.1, rng)
	packed := g.AppendPackedEdges(nil)
	if len(packed) != g.NumEdges() {
		t.Fatalf("%d packed edges, graph has %d", len(packed), g.NumEdges())
	}
	for i := 1; i < len(packed); i++ {
		if packed[i-1] >= packed[i] {
			t.Fatalf("packed list not strictly ascending at %d", i)
		}
	}
	for _, e := range packed {
		uv := UnpackEdge(e)
		if !g.HasEdge(int(uv[0]), int(uv[1])) {
			t.Fatalf("packed edge %v not in graph", uv)
		}
	}
}

func TestDiffPacked(t *testing.T) {
	prev := packedList([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3})
	next := packedList([2]int32{0, 1}, [2]int32{1, 3}, [2]int32{2, 3}, [2]int32{3, 4})
	if added, removed := DiffPacked(prev, next); added != 2 || removed != 1 {
		t.Fatalf("diff = +%d -%d, want +2 -1", added, removed)
	}
	if added, removed := DiffPacked(next, prev); added != 1 || removed != 2 {
		t.Fatalf("reverse diff = +%d -%d, want +1 -2", added, removed)
	}
	if added, removed := DiffPacked(nil, next); added != len(next) || removed != 0 {
		t.Fatalf("diff from empty = +%d -%d", added, removed)
	}
	if a, r := DiffPacked(prev, prev); a != 0 || r != 0 {
		t.Fatalf("self diff = +%d -%d", a, r)
	}
}

// TestConnectorBridgesComponents checks the repair contract: disconnected
// lists gain ascending representative-chain bridges, connected lists pass
// through untouched, and the result is always sorted and connected.
func TestConnectorBridgesComponents(t *testing.T) {
	n := 10
	c := NewConnector(n)

	// Three components: {0,1}, {2,3,4}, {5..9 isolated except 5-6}.
	edges := packedList([2]int32{0, 1}, [2]int32{2, 3}, [2]int32{3, 4}, [2]int32{5, 6})
	out := c.Connect(append([]uint64(nil), edges...))
	if c.Components() != 6 {
		t.Fatalf("components = %d, want 6", c.Components())
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Fatalf("connected list not sorted at %d", i)
		}
	}
	b := NewBuilderCap(n, len(out))
	for _, e := range out {
		uv := UnpackEdge(e)
		if err := b.AddEdge(int(uv[0]), int(uv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if g := b.Build("repaired"); !g.Connected() {
		t.Fatal("Connect output is not connected")
	}

	// Already connected: the same slice must come back unchanged.
	ring := packedList([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{3, 4},
		[2]int32{4, 5}, [2]int32{5, 6}, [2]int32{6, 7}, [2]int32{7, 8}, [2]int32{8, 9},
		[2]int32{0, 9})
	got := c.Connect(ring)
	if &got[0] != &ring[0] || len(got) != len(ring) {
		t.Fatal("connected input was rewritten")
	}
}

// TestConnectorEmptyInput covers the all-isolated case: n vertices, no
// edges, repaired into the 0-1-2-…-(n-1) chain.
func TestConnectorEmptyInput(t *testing.T) {
	n := 5
	c := NewConnector(n)
	out := c.Connect(nil)
	want := packedList([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{3, 4})
	if len(out) != len(want) {
		t.Fatalf("chain has %d edges, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("chain edge %d = %v, want %v", i, UnpackEdge(out[i]), UnpackEdge(want[i]))
		}
	}
}
