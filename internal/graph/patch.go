package graph

import (
	"fmt"
	"math"
)

// Patcher keeps a dynamic schedule's CSR in two reusable buffer pairs and
// refills the spare pair from the epoch's sorted packed edge list. The
// producers (internal/mobility's proximity scan, internal/adversary's
// perturbation engine) already own that list in canonical order, so Load is
// the tail of Builder.Build without its sort and without its allocations:
// count degrees, prefix-sum, fill — two linear passes whose cost does not
// depend on how much of the graph changed, zero steady-state allocations
// once the buffers have grown to their high-water size. See DESIGN.md §8.
//
// The produced graphs are canonical CSR — identical, element for element,
// to what Builder.Build would produce from the same edge set — which the
// equivalence quick-checks in this package, internal/mobility and
// internal/adversary pin down.
type Patcher struct {
	n   int
	cur int // buffer index holding the current graph

	offsets   [2][]int32 // len n+2: Load counts one slot ahead, see there
	neighbors [2][]int32
	graphs    [2]Graph // reusable headers over the two buffers
}

// NewPatcher returns a Patcher for graphs on n vertices.
func NewPatcher(n int) *Patcher {
	if n > math.MaxInt32-1 {
		panic(fmt.Sprintf("graph: %d vertices exceed the int32 CSR limit", n))
	}
	p := &Patcher{n: n}
	for i := range p.offsets {
		p.offsets[i] = make([]int32, n+2)
	}
	return p
}

// packedInOrder reports whether e is a canonical edge on n vertices
// (u < v < n) that sorts strictly after prev, the entry before it — 0 before
// the first, which no edge packs to.
func packedInOrder(prev, e uint64, n int) bool {
	return e>>32 < e&math.MaxUint32 && e&math.MaxUint32 < uint64(n) && prev < e
}

// CheckPacked returns an error naming the first entry at which edges stops
// being a canonical packed edge list on n vertices: strictly ascending
// (sorted, no duplicate), every entry u<<32|v with u < v < n. Restore paths
// run it on a checkpointed list before handing the list to Load.
func CheckPacked(edges []uint64, n int) error {
	var prev uint64
	for i, e := range edges {
		if !packedInOrder(prev, e, n) {
			return fmt.Errorf("graph: packed edge list entry %d (%d,%d) is not a strictly ascending edge u < v < %d",
				i, e>>32, uint32(e), n)
		}
		prev = e
	}
	return nil
}

// Load replaces the current graph by the one whose edge set is edges, a
// canonical packed list (see CheckPacked; a violation panics with the
// offending index — a corrupted CSR would be far harder to debug
// downstream). The returned graph aliases the Patcher's buffers and is valid
// until the next Load call; the engine's round-at-a-time consumption
// respects that lifetime by construction, and the previous graph stays
// intact in the other buffer pair meanwhile.
func (p *Patcher) Load(edges []uint64, name string) *Graph {
	if len(edges) > math.MaxInt32/2 {
		panic(fmt.Sprintf("graph: %d edges exceed the int32 CSR limit", len(edges)))
	}
	n, dst := p.n, 1-p.cur
	// Degrees are counted one slot ahead (vertex u at off[u+2]) so that the
	// prefix sum leaves off[u+1] = start of u's range: the fill pass uses
	// that slot as u's cursor and leaves it at the range's end, which is
	// the start of u+1's — off[:n+1] is then the offsets array, no separate
	// cursor array needed.
	off := p.offsets[dst]
	clear(off)
	var prev uint64
	for _, e := range edges {
		if !packedInOrder(prev, e, n) {
			panic(CheckPacked(edges, n).Error())
		}
		prev = e
		off[e>>32+2]++
		off[uint32(e)+2]++
	}
	for i := 2; i <= n+1; i++ {
		off[i] += off[i-1]
	}
	nbr := grown(p.neighbors[dst], 2*len(edges))
	p.neighbors[dst] = nbr
	// The sorted list fills every range in ascending neighbor order (the
	// argument is spelled out in Builder.Build), so no per-range sort.
	for _, e := range edges {
		u, v := int32(e>>32), int32(uint32(e))
		nbr[off[u+1]] = v
		off[u+1]++
		nbr[off[v+1]] = u
		off[v+1]++
	}
	p.cur = dst
	p.graphs[dst] = Graph{offsets: off[:n+1], neighbors: nbr, name: name}
	return &p.graphs[dst]
}

// grown returns s resized to length n, reallocating (with slack) only when
// the capacity is exceeded — the buffers stabilize at their high-water mark.
func grown(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n, n+n/4+16)
}

// EqualCSR reports whether g and h are element-for-element identical in CSR
// form — the same topology in the same canonical layout. This is the
// oracle relation of the Load/Builder equivalence tests: a loaded graph must
// be indistinguishable from a from-scratch rebuild.
func (g *Graph) EqualCSR(h *Graph) bool {
	if len(g.offsets) != len(h.offsets) || len(g.neighbors) != len(h.neighbors) {
		return false
	}
	for i, v := range g.offsets {
		if h.offsets[i] != v {
			return false
		}
	}
	for i, v := range g.neighbors {
		if h.neighbors[i] != v {
			return false
		}
	}
	return true
}
