package graph

// Connector repairs the connectivity of packed edge lists: the mobile
// telephone model requires every round's topology connected (§2), but both
// physical proximity graphs (internal/mobility) and adversarially cut
// topologies (internal/adversary) routinely shatter into components. The
// repair contract is shared so the two subsystems stay byte-compatible:
// union-find over the edges, then the ascending component representatives
// (smallest node id per component) are chained with virtual relay bridges —
// the sparse long-range fallback links (satellite/infrastructure hops) real
// smartphone meshes assume. Representatives ascend, so the bridge list is
// itself sorted and one merge pass restores global packed order.
//
// All scratch is allocated once per Connector and reused; Connect performs
// zero steady-state allocations once its buffers reach their high-water
// size.
type Connector struct {
	parent   []int32 // union-find over the components
	reps     []int32 // component representatives (ascending node id)
	rootMark []int32 // stamp array marking seen roots
	stamp    int32
	scratch  []uint64 // merge target for the bridge pass
}

// NewConnector returns a Connector for edge lists over n vertices.
func NewConnector(n int) *Connector {
	return &Connector{
		parent:   make([]int32, n),
		reps:     make([]int32, 0, 16),
		rootMark: make([]int32, n),
	}
}

// Connect returns a connected edge list covering every vertex: edges itself
// when it is already connected, otherwise a merged list with the
// representative-chain bridges inserted in sorted position. The returned
// slice may be a Connector-owned buffer, and the input buffer may be
// retained as future scratch — callers treat both as interchangeable
// reusable storage (dyngraph.Stepper's double buffers circulate through
// here by design).
func (c *Connector) Connect(edges []uint64) []uint64 {
	n := len(c.parent)
	for i := 0; i < n; i++ {
		c.parent[i] = int32(i)
	}
	for _, e := range edges {
		c.union(int32(e>>32), int32(uint32(e)))
	}
	c.stamp++
	c.reps = c.reps[:0]
	for u := 0; u < n; u++ {
		r := c.find(int32(u))
		if c.rootMark[r] != c.stamp {
			c.rootMark[r] = c.stamp
			c.reps = append(c.reps, int32(u))
		}
	}
	if len(c.reps) <= 1 {
		return edges
	}
	// Bridge reps[i]–reps[i+1]; both endpoints ascend, so the bridge list
	// is itself sorted and one merge pass restores global order. The merge
	// target and the input buffer trade places so both are reused.
	merged := c.scratch[:0]
	bi := 0
	bridge := func() uint64 {
		return uint64(c.reps[bi])<<32 | uint64(c.reps[bi+1])
	}
	for _, e := range edges {
		for bi+1 < len(c.reps) && bridge() < e {
			merged = append(merged, bridge())
			bi++
		}
		merged = append(merged, e)
	}
	for bi+1 < len(c.reps) {
		merged = append(merged, bridge())
		bi++
	}
	c.scratch = edges
	return merged
}

// Components returns the component count of the most recent Connect input
// (before bridging) — the number of bridges inserted plus one.
func (c *Connector) Components() int {
	if len(c.reps) == 0 {
		return 1
	}
	return len(c.reps)
}

func (c *Connector) find(u int32) int32 {
	for c.parent[u] != u {
		c.parent[u] = c.parent[c.parent[u]] // path halving
		u = c.parent[u]
	}
	return u
}

func (c *Connector) union(u, v int32) {
	ru, rv := c.find(u), c.find(v)
	if ru == rv {
		return
	}
	if ru < rv {
		c.parent[rv] = ru
	} else {
		c.parent[ru] = rv
	}
}
