// Package graph provides the static network-topology substrate of the mobile
// telephone model: undirected connected graphs, the generator families used
// by the paper's analyses and lower bounds (rings, stars, the two-star Δ²
// lower-bound graph of §1, expanders, ...), and the graph properties the
// round-complexity bounds are phrased in — maximum degree Δ, diameter D, and
// vertex expansion α (§2).
//
// Graphs are stored in compressed sparse row (CSR) form — a single offsets
// array plus a single neighbors array, both int32 — so that a million-node
// topology costs two flat allocations (~4·(n+1) + 4·2m bytes) instead of a
// pointer-per-vertex adjacency structure, and a node's neighbor scan is one
// contiguous slice walk. See DESIGN.md §"CSR graph layout".
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected simple graph on vertices 0..n-1 stored in CSR form:
// the neighbors of u are neighbors[offsets[u]:offsets[u+1]], sorted
// ascending. Graphs are immutable after construction through this package's
// builders.
type Graph struct {
	offsets   []int32
	neighbors []int32
	name      string
}

// Builder accumulates edges and produces an immutable Graph. Edges are kept
// as packed (u,v) pairs and deduplicated by a sort at Build time, so
// accumulating m edges costs O(m) space and no per-edge map overhead.
type Builder struct {
	n     int
	edges []uint64 // u<<32 | v with u < v
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return NewBuilderCap(n, 0)
}

// NewBuilderCap returns a Builder for n vertices with capacity for edgeHint
// edges preallocated, avoiding append growth for generators that know their
// edge count up front.
func NewBuilderCap(n, edgeHint int) *Builder {
	if edgeHint < 0 {
		edgeHint = 0
	}
	return &Builder{n: n, edges: make([]uint64, 0, edgeHint)}
}

// AddEdge adds the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are rejected with an error. Duplicate edges are coalesced at
// Build time.
func (b *Builder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
	return nil
}

// Build finalizes the graph with the given display name.
func (b *Builder) Build(name string) *Graph {
	if b.n > math.MaxInt32-1 {
		panic(fmt.Sprintf("graph: %d vertices exceed the int32 CSR limit", b.n))
	}
	// Sort + compact the packed edge list: duplicates from repeated AddEdge
	// calls collapse here, replacing the old map-based dedup.
	slices.Sort(b.edges)
	edges := b.edges[:0]
	var prev uint64
	for i, e := range b.edges {
		if i > 0 && e == prev {
			continue
		}
		edges = append(edges, e)
		prev = e
	}
	b.edges = edges // builders stay reusable: drop the compacted-away tail

	if len(edges) > math.MaxInt32/2 {
		// 2m directed adjacency entries must fit the int32 offsets, or the
		// prefix sum below wraps silently.
		panic(fmt.Sprintf("graph: %d edges exceed the int32 CSR limit", len(edges)))
	}
	offsets := make([]int32, b.n+1)
	for _, e := range edges {
		offsets[e>>32+1]++
		offsets[uint32(e)+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	neighbors := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	// Iterating the sorted unique edge list fills every per-vertex range in
	// ascending neighbor order: for vertex w, edges (y,w) with y < w arrive
	// during the earlier y-blocks in ascending y, and edges (w,x) with x > w
	// arrive during w's own block in ascending x — so no per-range sort is
	// needed.
	for _, e := range edges {
		u, v := int32(e>>32), int32(uint32(e))
		neighbors[offsets[u]+cursor[u]] = v
		cursor[u]++
		neighbors[offsets[v]+cursor[v]] = u
		cursor[v]++
	}
	return &Graph{offsets: offsets, neighbors: neighbors, name: name}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// Name returns the generator name for display.
func (g *Graph) Name() string { return g.name }

// Adjacency returns u's sorted neighbor ids as a zero-copy view into the CSR
// neighbors array. This is the hot-path accessor: no allocation, one bounds
// check. Callers must not modify the returned slice.
func (g *Graph) Adjacency(u int) []int32 {
	return g.neighbors[g.offsets[u]:g.offsets[u+1]]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return int(g.offsets[u+1] - g.offsets[u]) }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	adj := g.Adjacency(u)
	t := int32(v)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == t
}

// Edges returns all edges as (u < v) pairs.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Adjacency(u) {
			if int32(u) < v {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.neighbors) / 2 }

// MaxDegree returns Δ(G).
func (g *Graph) MaxDegree() int {
	d := int32(0)
	for u := 0; u < g.N(); u++ {
		if dd := g.offsets[u+1] - g.offsets[u]; dd > d {
			d = dd
		}
	}
	return int(d)
}

// Relabel returns the graph with vertex u renamed to perm[u] — the same
// topology under a permutation of the labels. It rebuilds the CSR arrays
// directly (degree counts, prefix sums, one fill pass, per-range sort) and
// is the scalable replacement for round-tripping through Edges + Builder.
func (g *Graph) Relabel(perm []int, name string) *Graph {
	n := g.N()
	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		offsets[perm[u]+1] = int32(g.Degree(u))
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	neighbors := make([]int32, len(g.neighbors))
	for u := 0; u < n; u++ {
		pu := perm[u]
		dst := neighbors[offsets[pu]:offsets[pu+1]]
		for i, v := range g.Adjacency(u) {
			dst[i] = int32(perm[v])
		}
		sortInt32(dst)
	}
	return &Graph{offsets: offsets, neighbors: neighbors, name: name}
}

// sortInt32 sorts a small int32 slice ascending (insertion sort for the
// typical short adjacency ranges, falling back to an allocation-free
// stdlib sort when long).
func sortInt32(s []int32) {
	if len(s) > 32 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// ErrDisconnected is returned by property routines that require connectivity.
var ErrDisconnected = errors.New("graph: not connected")

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := make([]int32, 1, 64)
	stack[0] = 0
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Adjacency(int(u)) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// BFS returns the distance from src to every vertex (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 1, n)
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		for _, v := range g.Adjacency(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the exact diameter via all-pairs BFS, or an error if the
// graph is disconnected. O(n·m); intended for the sizes we simulate.
func (g *Graph) Diameter() (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	d := 0
	for u := 0; u < n; u++ {
		for _, dd := range g.BFS(u) {
			if dd < 0 {
				return 0, ErrDisconnected
			}
			if dd > d {
				d = dd
			}
		}
	}
	return d, nil
}
