package graph

// Packed edge lists are the exchange format between the dynamic-topology
// producers (internal/mobility's proximity pipeline, internal/adversary's
// perturbation engine) and the CSR maintenance layer (dyngraph.Stepper:
// Connector, DiffPacked, Patcher.Load): an undirected edge {u, v} with
// u < v is one uint64, u<<32 | v, and a whole topology is a sorted []uint64
// — mergeable, diffable and comparable with flat integer scans, no per-edge
// allocation.

// PackEdge packs the undirected edge {u, v} into its canonical uint64 form
// (smaller endpoint in the high word).
func PackEdge(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// UnpackEdge unpacks a packed edge into its (u, v) pair with u < v.
func UnpackEdge(e uint64) [2]int32 { return [2]int32{int32(e >> 32), int32(uint32(e))} }

// AppendPackedEdges appends g's edges to buf in ascending packed order
// (CSR adjacency is sorted, and each edge is emitted at its smaller
// endpoint, so no sort is needed) and returns the extended slice.
func (g *Graph) AppendPackedEdges(buf []uint64) []uint64 {
	n := g.N()
	for u := 0; u < n; u++ {
		for _, v := range g.Adjacency(u) {
			if int32(u) < v {
				buf = append(buf, uint64(uint32(u))<<32|uint64(uint32(v)))
			}
		}
	}
	return buf
}

// DiffPacked merges two sorted packed edge lists and counts the edges only
// in next (added) and the edges only in prev (removed) — the two numbers a
// dyngraph.Delta reports. The merge counts the entries the lists share
// without a branch on the comparison: each step advances the cursor (or
// both) whose entry is not the larger, and a step that advances both has
// met a common edge.
func DiffPacked(prev, next []uint64) (added, removed int) {
	i, j, common := 0, 0, 0
	for i < len(prev) && j < len(next) {
		a, b := prev[i], next[j]
		le, ge := b2i(a <= b), b2i(a >= b)
		common += le & ge
		i += le
		j += ge
	}
	return len(next) - common, len(prev) - common
}

// b2i is 1 for true and 0 for false; the compiler emits it as a SETcc, so a
// comparison counted through it costs no branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// BuildPacked constructs a fresh graph from a packed edge list through the
// Builder — sort, deduplicate, allocate. The dynamic schedules' Rebuild mode
// runs it every epoch as the from-scratch oracle Patcher.Load is tested
// byte-identical against.
func BuildPacked(n int, edges []uint64, name string) *Graph {
	b := NewBuilderCap(n, len(edges))
	for _, e := range edges {
		_ = b.AddEdge(int(e>>32), int(uint32(e))) // the oracle drops what a canonical list cannot hold
	}
	return b.Build(name)
}
