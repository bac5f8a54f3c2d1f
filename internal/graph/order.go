package graph

import "sort"

// Vertex orderings for the cache-aware engine path. BFSOrder and DegreeOrder
// produce relabeling permutations (in the perm[old] = new convention Relabel
// expects) that improve memory locality of the round loop: after a BFS
// relabeling, the adjacency lists of consecutive vertices point at nearby
// vertex ids, so the tag/decide scans touch close-together cache lines.

// BFSOrder returns a relabeling permutation (perm[old] = new) that numbers
// vertices in breadth-first order from vertex 0. Disconnected remainders are
// swept in ascending id order, each starting a fresh BFS, so the permutation
// is total and deterministic for any graph.
func BFSOrder(g *Graph) []int {
	n := g.N()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	queue := make([]int32, 0, n)
	next := 0
	for root := 0; root < n; root++ {
		if perm[root] >= 0 {
			continue
		}
		perm[root] = next
		next++
		queue = append(queue[:0], int32(root))
		for head := 0; head < len(queue); head++ {
			for _, v := range g.Adjacency(int(queue[head])) {
				if perm[v] < 0 {
					perm[v] = next
					next++
					queue = append(queue, v)
				}
			}
		}
	}
	return perm
}

// DegreeOrder returns a relabeling permutation (perm[old] = new) that
// numbers vertices by descending degree, ties broken by ascending id, so
// the high-degree hubs' adjacency lists sit together at the front.
func DegreeOrder(g *Graph) []int {
	n := g.N()
	byDeg := make([]int32, n)
	for u := range byDeg {
		byDeg[u] = int32(u)
	}
	sort.SliceStable(byDeg, func(i, j int) bool {
		return g.Degree(int(byDeg[i])) > g.Degree(int(byDeg[j]))
	})
	perm := make([]int, n)
	for rank, u := range byDeg {
		perm[u] = rank
	}
	return perm
}
