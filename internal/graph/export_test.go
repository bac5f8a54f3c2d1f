package graph

// unpackEdge unpacks a packed edge into its (u, v) pair with u < v.
func unpackEdge(e uint64) [2]int32 { return [2]int32{int32(e >> 32), int32(uint32(e))} }

// Components returns the component count of the most recent Connect input
// (before bridging) — the number of bridges inserted plus one.
func (c *Connector) Components() int {
	if len(c.reps) == 0 {
		return 1
	}
	return len(c.reps)
}

// Neighbors returns the sorted neighbor list of u as []int, the form the
// tests' reference adjacency takes.
func (g *Graph) Neighbors(u int) []int {
	adj := g.Adjacency(u)
	out := make([]int, len(adj))
	for i, v := range adj {
		out[i] = int(v)
	}
	return out
}
