package graph

// Matching machinery for the §7 analysis. Lemma 7.1 (adapted from [11])
// states that for any S ⊂ V with |S| ≤ n/2 in a graph with vertex
// expansion α, the bipartite boundary graph B_G(S) has a matching of size
// ν(B_G(S)) ≥ |S|·α/4. The ε-gossip argument (Theorem 7.4) applies it to
// coalition boundaries. This file implements B_G(S) extraction and
// maximum bipartite matching (Hopcroft–Karp) so the lemma is checkable on
// concrete graphs (experiment E21).

// Bipartite is the boundary graph B_G(S): the subgraph keeping only edges
// with one endpoint in S ("left") and one outside ("right").
type Bipartite struct {
	// Left holds the S-side vertex ids (those with at least one crossing
	// edge); Right holds the V∖S-side ids.
	Left, Right []int
	// Adj[i] lists, for Left[i], the indices into Right it neighbors.
	Adj [][]int
}

// BoundaryBipartite extracts B_G(S) from g. Vertices of S (or V∖S) with
// no crossing edges are omitted — they cannot participate in a matching.
func (g *Graph) BoundaryBipartite(s []int) *Bipartite {
	inS := make([]bool, g.N())
	for _, v := range s {
		if v >= 0 && v < g.N() {
			inS[v] = true
		}
	}
	rightIndex := make(map[int]int)
	b := &Bipartite{}
	for u := 0; u < g.N(); u++ {
		if !inS[u] {
			continue
		}
		var adj []int
		for _, v := range g.Adjacency(u) {
			v := int(v)
			if inS[v] {
				continue
			}
			ri, ok := rightIndex[v]
			if !ok {
				ri = len(b.Right)
				rightIndex[v] = ri
				b.Right = append(b.Right, v)
			}
			adj = append(adj, ri)
		}
		if len(adj) > 0 {
			b.Left = append(b.Left, u)
			b.Adj = append(b.Adj, adj)
		}
	}
	return b
}

// MaximumMatching returns ν(B), the size of a maximum matching, via
// Hopcroft–Karp (O(E·√V)).
func (b *Bipartite) MaximumMatching() int {
	nl, nr := len(b.Left), len(b.Right)
	if nl == 0 || nr == 0 {
		return 0
	}
	const unmatched = -1
	matchL := make([]int, nl) // left i -> right index
	matchR := make([]int, nr) // right j -> left index
	for i := range matchL {
		matchL[i] = unmatched
	}
	for j := range matchR {
		matchR[j] = unmatched
	}

	const inf = int(^uint(0) >> 1)
	dist := make([]int, nl)
	queue := make([]int, 0, nl)

	bfs := func() bool {
		queue = queue[:0]
		for i := 0; i < nl; i++ {
			if matchL[i] == unmatched {
				dist[i] = 0
				queue = append(queue, i)
			} else {
				dist[i] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			i := queue[qi]
			for _, j := range b.Adj[i] {
				i2 := matchR[j]
				if i2 == unmatched {
					found = true
				} else if dist[i2] == inf {
					dist[i2] = dist[i] + 1
					queue = append(queue, i2)
				}
			}
		}
		return found
	}

	var dfs func(i int) bool
	dfs = func(i int) bool {
		for _, j := range b.Adj[i] {
			i2 := matchR[j]
			if i2 == unmatched || (dist[i2] == dist[i]+1 && dfs(i2)) {
				matchL[i] = j
				matchR[j] = i
				return true
			}
		}
		dist[i] = inf
		return false
	}

	size := 0
	for bfs() {
		for i := 0; i < nl; i++ {
			if matchL[i] == unmatched && dfs(i) {
				size++
			}
		}
	}
	return size
}
