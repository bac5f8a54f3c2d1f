package graph

import (
	"fmt"
	"sort"

	"mobilegossip/internal/prand"
)

// Path returns the path graph P_n.
func Path(n int) *Graph {
	b := NewBuilderCap(n, n)
	for i := 0; i+1 < n; i++ {
		_ = b.AddEdge(i, i+1)
	}
	return b.Build(fmt.Sprintf("path(%d)", n))
}

// Cycle returns the cycle (ring) C_n for n >= 3; for n < 3 it degrades to a
// path. Rings are the canonical low-expansion (α ≈ 4/n) topology.
func Cycle(n int) *Graph {
	if n < 3 {
		return Path(n)
	}
	b := NewBuilderCap(n, n)
	for i := 0; i < n; i++ {
		_ = b.AddEdge(i, (i+1)%n)
	}
	return b.Build(fmt.Sprintf("cycle(%d)", n))
}

// Complete returns K_n (α = 1, Δ = n−1).
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_ = b.AddEdge(i, j)
		}
	}
	return b.Build(fmt.Sprintf("complete(%d)", n))
}

// Star returns the star S_n: vertex 0 is the hub joined to 1..n-1.
func Star(n int) *Graph {
	b := NewBuilderCap(n, n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(0, i)
	}
	return b.Build(fmt.Sprintf("star(%d)", n))
}

// DoubleStar returns the two-star graph from the paper's Ω(Δ²) discussion
// (§1): two hubs u = 0 and v = 1 joined by an edge, each with ⌊(n−2)/2⌋
// (plus remainder) private leaves. It is the worst case for blind
// (b = 0) connection strategies.
func DoubleStar(n int) *Graph {
	b := NewBuilderCap(n, n)
	if n >= 2 {
		_ = b.AddEdge(0, 1)
	}
	for i := 2; i < n; i++ {
		hub := i % 2 // alternate leaves between the two hubs
		_ = b.AddEdge(hub, i)
	}
	return b.Build(fmt.Sprintf("doublestar(%d)", n))
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilderCap(rows*cols, 2*rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				_ = b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				_ = b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build(fmt.Sprintf("grid(%dx%d)", rows, cols))
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph {
	n := 1 << uint(d)
	b := NewBuilderCap(n, n*d/2)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build(fmt.Sprintf("hypercube(%d)", d))
}

// Barbell returns two K_m cliques joined by a path of length pathLen
// (pathLen >= 1 edges including the bridging edges). Total vertices
// 2m + max(pathLen-1, 0). A classic bottleneck (low α, high Δ) topology.
func Barbell(m, pathLen int) *Graph {
	if pathLen < 1 {
		pathLen = 1
	}
	inner := pathLen - 1
	n := 2*m + inner
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			_ = b.AddEdge(i, j)
			_ = b.AddEdge(m+inner+i, m+inner+j)
		}
	}
	prev := 0
	for p := 0; p < inner; p++ {
		_ = b.AddEdge(prev, m+p)
		prev = m + p
	}
	_ = b.AddEdge(prev, m+inner)
	return b.Build(fmt.Sprintf("barbell(%d,%d)", m, pathLen))
}

// GNP returns a connected Erdős–Rényi graph G(n, p): edges are sampled
// independently and, if the sample is disconnected, a Hamiltonian-cycle
// backbone over a random permutation is added (standard connectivity patch
// that perturbs α and Δ negligibly for p above the connectivity threshold).
func GNP(n int, p float64, rng *prand.RNG) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = b.AddEdge(i, j)
			}
		}
	}
	g := b.Build(fmt.Sprintf("gnp(%d,%.3f)", n, p))
	if g.Connected() {
		return g
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		_ = b.AddEdge(perm[i], perm[(i+1)%n])
	}
	return b.Build(fmt.Sprintf("gnp(%d,%.3f)+cycle", n, p))
}

// RandomRegular returns a connected random d-regular graph via the
// pairing/permutation model with retries. Random regular graphs with d >= 3
// are expanders w.h.p. (constant α), the paper's "well-connected" regime.
// If 50 attempts find no simple connected pairing, it returns
// Circulant(n, d) instead: a ring of chords with α ≈ d/n, not an expander,
// whose degree is 2⌈d/2⌉, so an odd d yields a (d+1)-regular graph. ROADMAP
// item 2 replaces the attempts and this fallback.
//
// A pairing is simple with probability about e^{-(d²-1)/4}: one attempt in
// forty at d = 4, one in 6,000 at d = 6, so at d ≥ 6 the fallback fires on
// almost every seed. Each attempt consumes the n·d−1 draws of a full stub
// shuffle whatever its verdict, so the stream, and every graph drawn from
// it, is fixed by (n, d, rng) alone; what an attempt costs beyond its draws
// is only the pairs it checks before the first bad one (see tryPairing).
func RandomRegular(n, d int, rng *prand.RNG) *Graph {
	if d >= n {
		d = n - 1
	}
	if n*d%2 == 1 {
		d-- // n·d must be even
	}
	if d < 1 {
		return Path(n)
	}
	p := newPairing(n, d)
	for attempt := 0; attempt < 50; attempt++ {
		g, ok := tryPairing(p, rng)
		if ok && g.Connected() {
			return g
		}
	}
	return Circulant(n, d)
}

// pairing is the scratch the attempts of one RandomRegular call share,
// carved from one int32 slab.
type pairing struct {
	n, d     int
	template []int32 // vertex v repeated d times, v = 0..n-1
	stubs    []int32 // the attempt's shuffle, reset from template
	js       []int32 // the attempt's swap indices; js[0] stays 0
	nbr      []int32 // nbr[u·d : u·d+cnt[u]]: the partners v > u paired so far
	cnt      []int32
}

func newPairing(n, d int) *pairing {
	m := n * d
	slab := make([]int32, 4*m+n)
	p := &pairing{n: n, d: d,
		template: slab[:m:m], stubs: slab[m : 2*m : 2*m], js: slab[2*m : 3*m : 3*m],
		nbr: slab[3*m : 4*m : 4*m], cnt: slab[4*m:]}
	for v := range n {
		for i := range d {
			p.template[v*d+i] = int32(v)
		}
	}
	return p
}

// tryPairing attempts one run of the configuration model: shuffle the n·d
// stubs, pair consecutive ones, and fail on a self-loop or a repeated pair.
// All n·d−1 swap indices are drawn first, in the shuffle's own order, so
// rng advances identically whatever the verdict. The swaps then run from
// the top, and pair (stubs[i], stubs[i+1]) is final once the swap at even i
// is done: it is checked there, against the ≤ d−1 partners already recorded
// for its smaller endpoint, and the first self-loop or repeat ends the
// attempt. A simple pairing is built into a Graph from the recorded
// partners.
func tryPairing(p *pairing, rng *prand.RNG) (*Graph, bool) {
	d := int32(p.d)
	stubs, js, nbr, cnt := p.stubs, p.js, p.nbr, p.cnt
	copy(stubs, p.template)
	clear(cnt)
	rng.FisherYates(js)
	// i = 0 swaps stubs[0] with itself and finalizes the first pair.
	for i := len(stubs) - 1; i >= 0; i-- {
		j := js[i]
		stubs[i], stubs[j] = stubs[j], stubs[i]
		if i&1 == 1 {
			continue
		}
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		if u > v {
			u, v = v, u
		}
		row := nbr[u*d : u*d+cnt[u]]
		for _, w := range row {
			if w == v {
				return nil, false
			}
		}
		nbr[u*d+cnt[u]] = v
		cnt[u]++
	}
	keys := make([]uint64, 0, len(stubs)/2)
	for u := range p.n {
		for _, v := range nbr[u*p.d : u*p.d+int(cnt[u])] {
			keys = append(keys, uint64(u)<<32|uint64(v))
		}
	}
	b := Builder{n: p.n, edges: keys}
	return b.Build(fmt.Sprintf("regular(%d,%d)", p.n, p.d)), true
}

// Circulant returns the circulant graph C_n(1, 2, ..., ⌈d/2⌉): each vertex i
// is joined to i±s (mod n) for s = 1..⌈d/2⌉. Its degree is 2⌈d/2⌉ when
// n > 2⌈d/2⌉, so an odd d gives d + 1 (ROADMAP item 2); α ≈ d/n; always
// connected.
func Circulant(n, d int) *Graph {
	half := (d + 1) / 2
	b := NewBuilderCap(n, n*half)
	for i := 0; i < n; i++ {
		for s := 1; s <= half && s < n; s++ {
			_ = b.AddEdge(i, (i+s)%n)
		}
	}
	return b.Build(fmt.Sprintf("circulant(%d,%d)", n, d))
}

// RandomGeometric returns a connected random geometric graph RGG(n, r):
// n points placed uniformly in the unit square, joined when within
// Euclidean distance r. A spatial cell grid of side r makes construction
// O(n + m), so million-node instances build in seconds — the standard model
// for smartphone crowds with fixed radio range (a metropolis scenario).
// If the distance graph is disconnected (r below the ~√(ln n/(πn))
// connectivity threshold), a path over the points sorted by (x, y) is added
// as a deterministic backbone, mirroring the GNP connectivity patch.
func RandomGeometric(n int, r float64, rng *prand.RNG) *Graph {
	if r <= 0 {
		r = 1e-9
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	// Bucket points into a grid of side r; only the 3×3 cell neighborhood
	// can contain points within distance r.
	side := int(1 / r)
	if side < 1 {
		side = 1
	}
	if side > n {
		side = n // no point in more cells than points
	}
	cellOf := func(i int) (int, int) {
		cx := int(xs[i] * float64(side))
		cy := int(ys[i] * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	// CSR-style bucketing of points into cells: counts, prefix sums, fill.
	cells := side * side
	cellOff := make([]int32, cells+1)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		cellOff[cy*side+cx+1]++
	}
	for c := 1; c <= cells; c++ {
		cellOff[c] += cellOff[c-1]
	}
	cellPts := make([]int32, n)
	cursor := make([]int32, cells)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		c := cy*side + cx
		cellPts[cellOff[c]+cursor[c]] = int32(i)
		cursor[c]++
	}
	r2 := r * r
	b := NewBuilderCap(n, n) // grows if the graph is denser
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= side || ny >= side {
					continue
				}
				c := ny*side + nx
				for _, j32 := range cellPts[cellOff[c]:cellOff[c+1]] {
					j := int(j32)
					if j <= i {
						continue // each pair once
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						_ = b.AddEdge(i, j)
					}
				}
			}
		}
	}
	g := b.Build(fmt.Sprintf("rgg(%d,%.3f)", n, r))
	if g.Connected() {
		return g
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool {
		if xs[order[a]] != xs[order[c]] {
			return xs[order[a]] < xs[order[c]]
		}
		return ys[order[a]] < ys[order[c]]
	})
	for i := 0; i+1 < n; i++ {
		_ = b.AddEdge(order[i], order[i+1])
	}
	return b.Build(fmt.Sprintf("rgg(%d,%.3f)+path", n, r))
}

// PreferentialAttachment returns a Barabási–Albert graph: a seed clique on
// m+1 vertices, then each new vertex attaches m edges to existing vertices
// chosen proportionally to their degree. Sampling uses the repeated-endpoint
// list (each edge contributes both endpoints), so construction is O(n·m)
// and the result is connected by construction with a heavy-tailed degree
// distribution — the classic model for social/contact networks.
func PreferentialAttachment(n, m int, rng *prand.RNG) *Graph {
	if m < 1 {
		m = 1
	}
	if m >= n {
		m = n - 1
	}
	b := NewBuilderCap(n, m*(m+1)/2+(n-m-1)*m)
	// endpoints holds every edge's two endpoints; sampling a uniform element
	// is degree-proportional sampling.
	endpoints := make([]int32, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	for i := 0; i <= m && i < n; i++ {
		for j := i + 1; j <= m && j < n; j++ {
			_ = b.AddEdge(i, j)
			endpoints = append(endpoints, int32(i), int32(j))
		}
	}
	chosen := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			_ = b.AddEdge(v, int(t))
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return b.Build(fmt.Sprintf("pa(%d,%d)", n, m))
}
