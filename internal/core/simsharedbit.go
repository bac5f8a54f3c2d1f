package core

import (
	"fmt"
	"sync"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/eqtest"
	"mobilegossip/internal/leader"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// SimSharedBit is the §5.2 algorithm for b = 1, τ ≥ 1 with no shared
// randomness. At start every node privately samples a seed — an index into
// the multiset R′ of Lemma 5.5 (our constructive stand-in: prand.SeedSpace).
// The run then interleaves two algorithms:
//
//   - even rounds execute BitConvergence leader election with the node's
//     seed as election payload; candidates converge to the minimum UID,
//     whose seed thereby reaches everyone;
//   - odd rounds execute SharedBit gossip, each node using as its "shared"
//     string whatever R′ member its current candidate leader's payload
//     points to. Before convergence nodes may use different strings and
//     waste rounds; after convergence the execution is exactly SharedBit.
//
// Theorem 5.6: O(kn + (1/α)·Δ^{1/τ}·log⁶N) rounds w.h.p.
type SimSharedBit struct {
	st    *State
	lead  *leader.Protocol
	space *prand.SeedSpace
	// planes caches the materialized R′ member per seed index, with its
	// advertisement plane. Tag and Decide consult it for any node, so the
	// cache is the one piece of cross-node shared state they touch; mu
	// makes the lazy materialization safe for concurrent callers. The
	// cached value for a seed is a pure function of the seed (and, for the
	// plane, the round group), so fill order cannot affect results.
	mu     sync.Mutex
	planes map[uint64]*planes
}

var _ mtm.Protocol = (*SimSharedBit)(nil)

// NewSimSharedBit returns a SimSharedBit protocol over st. seeds[u] is node
// u's private draw from the seed space (use SampleSeeds); UID of node u is
// u+1.
func NewSimSharedBit(st *State, space *prand.SeedSpace, seeds []uint64) *SimSharedBit {
	ids := make([]int, st.n)
	for u := range ids {
		ids[u] = u + 1
	}
	return &SimSharedBit{
		st:     st,
		lead:   leader.New(ids, seeds),
		space:  space,
		planes: make(map[uint64]*planes, 4),
	}
}

// SampleSeeds draws one private R′ index per node from rng.
func SampleSeeds(space *prand.SeedSpace, n int, rng *prand.RNG) []uint64 {
	seeds := make([]uint64, n)
	for u := range seeds {
		seeds[u] = space.Sample(rng)
	}
	return seeds
}

// State exposes the run state for instrumentation.
func (p *SimSharedBit) State() *State { return p.st }

// Layout lays out the protocol's mutable state. The seed space and each
// node's private seed are reconstructed from the run configuration; only
// the election's progress mutates during a run. The cache of strings and
// planes is rebuilt lazily on demand.
func (p *SimSharedBit) Layout(c ckpt.Fields) error {
	c.Section("simsharedbit")
	size := p.space.Size()
	c.U64(&size)
	if err := c.Err(); err != nil {
		return err
	}
	if size != p.space.Size() {
		return fmt.Errorf("core: checkpoint seed space |R′|=%d, protocol has %d", size, p.space.Size())
	}
	return p.lead.Layout(c)
}

// planesFor returns the R′ member node u currently believes is shared with
// its plane, created at the given round group on first sight.
func (p *SimSharedBit) planesFor(u mtm.NodeID, group int) *planes {
	seed := p.lead.Payload(u)
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.planes[seed]
	if !ok {
		pl = newPlanes(p.st, p.space.String(seed), 1, group)
		// The cache only ever holds a handful of live seeds; bound it so an
		// adversarial schedule cannot grow it past O(n).
		if len(p.planes) > 4*p.st.n {
			p.planes = make(map[uint64]*planes, 4)
		}
		p.planes[seed] = pl
	}
	return pl
}

// gossipGroup maps an odd engine round to its SharedBit round group.
func gossipGroup(r int) int { return (r + 1) / 2 }

// leaderRound maps an even engine round to its election round.
func leaderRound(r int) int { return r / 2 }

// TagBits implements mtm.Protocol (b = 1).
func (p *SimSharedBit) TagBits() int { return 1 }

// Tag implements mtm.Protocol: dispatch on round parity.
func (p *SimSharedBit) Tag(r int, u mtm.NodeID) uint64 {
	if r%2 == 0 {
		return p.lead.Tag(leaderRound(r), u)
	}
	g := gossipGroup(r)
	return p.planesFor(u, g).tag(g, p.st.sets[u])
}

// Decide implements mtm.Protocol.
func (p *SimSharedBit) Decide(r int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	if r%2 == 0 {
		return p.lead.Decide(leaderRound(r), u, view, rng)
	}
	g := gossipGroup(r)
	return decideSharedBit(p.planesFor(u, g).shared, g, u, view)
}

// Exchange implements mtm.Protocol.
func (p *SimSharedBit) Exchange(r int, c *mtm.Conn) {
	if r%2 == 0 {
		p.lead.Exchange(leaderRound(r), c)
		return
	}
	eqtest.Transfer(c, p.st.sets[c.Initiator], p.st.sets[c.Responder], p.st.transferEps)
}

// Done implements mtm.Protocol: gossip completion is the objective; the
// election is only a means.
func (p *SimSharedBit) Done() bool { return p.st.AllDone() }
