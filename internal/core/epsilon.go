package core

import (
	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/tokenset"
)

// SetProtocol is a gossip protocol whose per-node progress is tracked
// through a shared *State — every algorithm in this package implements it.
// EpsilonGossip can relax the termination objective of any SetProtocol.
type SetProtocol interface {
	mtm.Protocol
	State() *State
}

// EpsilonGossip wraps a gossip protocol with the relaxed §7 objective:
// assuming k = n (every node starts with exactly one token), the run stops
// once some coalition S with |S| ≥ ⌈εn⌉ exists in which every pair of
// nodes mutually knows each other's tokens. Theorem 7.4: SharedBit reaches
// this state in O(n·√(Δ·logΔ)/((1−ε)·α)) rounds — up to a sublinear
// polynomial factor faster than the O(n²) it needs for full gossip.
// Corollary 7.5 extends the same bound (plus the additive leader-election
// term) to SimSharedBit, which this wrapper supports through the
// SetProtocol interface.
//
// Detection uses the sound witness described in DESIGN.md §5 (a
// generalization of Lemma 7.3 case 1); it never reports a false positive,
// so measured ε-gossip times are upper bounds on the true solution time.
type EpsilonGossip struct {
	inner SetProtocol
	eps   float64
	own   []int // own[u] = node u's starting token id
	// checkEvery throttles the O(nk) detector; 1 = every round.
	checkEvery int
	solved     bool
	rounds     int
}

var _ mtm.Protocol = (*EpsilonGossip)(nil)

// NewEpsilonOver wraps any SetProtocol (SharedBit per Theorem 7.4,
// SimSharedBit per Corollary 7.5) with the ε-gossip objective. The
// protocol's state must have been built from OneTokenPerNode(n, n).
func NewEpsilonOver(inner SetProtocol, eps float64, checkEvery int) *EpsilonGossip {
	st := inner.State()
	own := make([]int, st.n)
	for u := range own {
		own[u] = u + 1
	}
	if checkEvery < 1 {
		checkEvery = 1
	}
	return &EpsilonGossip{inner: inner, eps: eps, own: own, checkEvery: checkEvery}
}

// State exposes the run state for instrumentation.
func (p *EpsilonGossip) State() *State { return p.inner.State() }

// CheckpointTo serializes the wrapper's mutable state (the solved latch
// and the Done-call counter that phases the throttled detector).
func (p *EpsilonGossip) CheckpointTo(w *ckpt.Writer) {
	w.Section("epsilon")
	w.Bool(p.solved)
	w.Int(p.rounds)
}

// RestoreFrom loads a CheckpointTo stream.
func (p *EpsilonGossip) RestoreFrom(r *ckpt.Reader) error {
	r.Section("epsilon")
	p.solved = r.Bool()
	p.rounds = r.Int()
	return r.Err()
}

// TagBits implements mtm.Protocol.
func (p *EpsilonGossip) TagBits() int { return p.inner.TagBits() }

// Tag implements mtm.Protocol.
func (p *EpsilonGossip) Tag(r int, u mtm.NodeID) uint64 { return p.inner.Tag(r, u) }

// Decide implements mtm.Protocol.
func (p *EpsilonGossip) Decide(r int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	return p.inner.Decide(r, u, view, rng)
}

// Exchange implements mtm.Protocol.
func (p *EpsilonGossip) Exchange(r int, c *mtm.Conn) { p.inner.Exchange(r, c) }

// Done implements mtm.Protocol: the relaxed objective.
func (p *EpsilonGossip) Done() bool {
	if p.solved {
		return true
	}
	p.rounds++
	if p.rounds%p.checkEvery != 0 && !p.inner.State().done {
		return false
	}
	st := p.inner.State()
	if st.AllDone() || tokenset.EpsilonSolved(st.sets, p.own, p.eps) {
		p.solved = true
	}
	return p.solved
}
