package graph

import (
	"slices"
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

// TestConnectorMergesTwoLowerRoots: vertex 3's run meets 4, whose component
// is rooted at 0, and then 5, rooted at 1 — two roots below its own. After
// the first union the run's root is 0, so the second must hang 1 (or 0)
// under the other, not re-point 3 and leave 0 behind: {0, 1, 3, 4, 5} is
// one component, and only 2 needs a bridge.
func TestConnectorMergesTwoLowerRoots(t *testing.T) {
	c := NewConnector(6)
	out := c.Connect(packedList([2]int32{0, 4}, [2]int32{1, 5}, [2]int32{3, 4}, [2]int32{3, 5}))
	want := packedList([2]int32{0, 2}, [2]int32{0, 4}, [2]int32{1, 5}, [2]int32{3, 4}, [2]int32{3, 5})
	if c.Components() != 2 || len(out) != len(want) {
		t.Fatalf("%d components, list %v; want 2 and %v", c.Components(), out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, UnpackEdge(out[i]), UnpackEdge(want[i]))
		}
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

// fuzzLists reads two canonical packed edge lists on n ≤ 64 vertices from
// data: n from the first byte, the split between the lists from the second,
// then one endpoint pair per two bytes (self-loops dropped, duplicates
// merged, sorted).
func fuzzLists(data []byte) (n int, prev, next []uint64) {
	if len(data) < 2 {
		return 1, nil, nil
	}
	n = int(data[0])%64 + 1
	pairs := data[2:]
	split := min(int(data[1]), len(pairs)/2)
	list := func(b []byte) []uint64 {
		set := map[uint64]bool{}
		for i := 0; i+1 < len(b); i += 2 {
			if u, v := int32(b[i])%int32(n), int32(b[i+1])%int32(n); u != v {
				set[PackEdge(u, v)] = true
			}
		}
		out := make([]uint64, 0, len(set))
		for e := range set {
			out = append(out, e)
		}
		slices.Sort(out)
		return out
	}
	return n, list(pairs[:2*split]), list(pairs[2*split:])
}

// connectReference is Connect's contract spelled out: the components by
// breadth-first search, each represented by its smallest id (the first the
// ascending scan reaches), and consecutive representatives bridged into
// the sorted list.
func connectReference(n int, edges []uint64) (out []uint64, components int) {
	adj := make([][]int32, n)
	for _, e := range edges {
		u, v := int32(e>>32), int32(uint32(e))
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	seen := make([]bool, n)
	var reps []int32
	for s := range int32(n) {
		if seen[s] {
			continue
		}
		reps = append(reps, s)
		seen[s] = true
		for queue := []int32{s}; len(queue) > 0; queue = queue[1:] {
			for _, v := range adj[queue[0]] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	out = slices.Clone(edges)
	for i := 0; i+1 < len(reps); i++ {
		out = append(out, PackEdge(reps[i], reps[i+1]))
	}
	slices.Sort(out)
	return out, len(reps)
}

// FuzzConnectAndDiff holds Connect to the breadth-first reference — on two
// lists in a row through one Connector, as a Stepper reuses it — and
// DiffPacked to a set count.
func FuzzConnectAndDiff(f *testing.F) {
	f.Add([]byte{9, 2, 0, 1, 2, 3, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 0})
	f.Add([]byte{63, 3, 9, 40, 40, 2, 17, 63, 0, 1, 1, 2, 2, 3, 50, 60})
	f.Add([]byte{7, 1, 6, 0, 5, 0, 4, 1, 3, 2, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, prev, next := fuzzLists(data)
		c := NewConnector(n)
		for _, in := range [][]uint64{prev, next} {
			want, comps := connectReference(n, in)
			if got := c.Connect(slices.Clone(in)); !slices.Equal(got, want) || c.Components() != comps {
				t.Fatalf("Connect(n=%d, %v) = %v with %d components, want %v with %d", n, in, got, c.Components(), want, comps)
			}
		}
		inPrev := map[uint64]bool{}
		for _, e := range prev {
			inPrev[e] = true
		}
		common := 0
		for _, e := range next {
			if inPrev[e] {
				common++
			}
		}
		if added, removed := DiffPacked(prev, next); added != len(next)-common || removed != len(prev)-common {
			t.Fatalf("DiffPacked(%v, %v) = +%d -%d, want +%d -%d", prev, next, added, removed, len(next)-common, len(prev)-common)
		}
	})
}
