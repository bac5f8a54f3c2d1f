package graph

import "slices"

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
	parent  []int32  // union-find over the components; a root is its component's smallest id
	reps    []int32  // component representatives (ascending node id)
	scratch []uint64 // merge target for the bridge pass
}

// NewConnector returns a Connector for edge lists over n vertices.
func NewConnector(n int) *Connector {
	return &Connector{
		parent: make([]int32, n),
		reps:   make([]int32, 0, 16),
	}
}

// Connect returns a connected edge list covering every vertex: edges itself
// when it is already connected, otherwise a merged list with the
// representative-chain bridges inserted in sorted position. The returned
// slice may be a Connector-owned buffer, and the input buffer may be
// retained as future scratch — callers treat both as interchangeable
// reusable storage (dyngraph.Stepper's double buffers circulate through
// here by design).
//
// The union pass walks the list one smaller-endpoint run at a time: u's
// root is found once for the run, a v already pointing at it costs one
// load, and every other v is merged and then pointed at the root. A union
// hangs the larger root under the smaller, so every root is the smallest id
// of its component, and the roots in ascending order are the
// representatives — whatever order the unions ran in, the bridges depend
// only on the partition.
func (c *Connector) Connect(edges []uint64) []uint64 {
	n := len(c.parent)
	for i := 0; i < n; i++ {
		c.parent[i] = int32(i)
	}
	for i := 0; i < len(edges); {
		u := uint32(edges[i] >> 32)
		ru := c.find(int32(u))
		for ; i < len(edges) && uint32(edges[i]>>32) == u; i++ {
			v := int32(uint32(edges[i]))
			if c.parent[v] == ru {
				continue
			}
			if rv := c.find(v); rv < ru {
				c.parent[ru] = rv
				ru = rv
			} else if rv > ru {
				c.parent[rv] = ru
			}
			c.parent[v] = ru
		}
	}
	c.reps = c.reps[:0]
	for u := 0; u < n; u++ {
		if c.parent[u] == int32(u) {
			c.reps = append(c.reps, int32(u))
		}
	}
	if len(c.reps) <= 1 {
		return edges
	}
	// Bridge reps[i]–reps[i+1]. Both endpoints ascend, so the bridges are
	// themselves sorted: each goes in where a binary search of the rest of
	// the list puts it (no edge joins two components, so it is never found),
	// and the run of edges before it is copied whole. The merge target and
	// the input buffer trade places so both are reused.
	merged, rest := c.scratch[:0], edges
	for i := 0; i+1 < len(c.reps); i++ {
		bridge := uint64(c.reps[i])<<32 | uint64(c.reps[i+1])
		at, _ := slices.BinarySearch(rest, bridge)
		merged = append(append(merged, rest[:at]...), bridge)
		rest = rest[at:]
	}
	c.scratch = edges
	return append(merged, rest...)
}

func (c *Connector) find(u int32) int32 {
	for c.parent[u] != u {
		c.parent[u] = c.parent[c.parent[u]] // path halving
		u = c.parent[u]
	}
	return u
}
