package core

import (
	"mobilegossip/internal/eqtest"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// SharedBit is the §5.1 algorithm for b = 1, τ ≥ 1 under a shared randomness
// source. In round r node u advertises
//
//	b_u(r) = Σ_{t ∈ T_u(r)} t.bit  (mod 2),  b_u(r) = 0 for empty sets,
//
// where t.bit is the shared random bit assigned to token t in round group r
// (Lemma 5.2: nodes with equal sets advertise equal bits; nodes with
// different sets differ with probability exactly 1/2). Nodes advertising 1
// propose to a uniformly chosen neighbor advertising 0 — the uniform choice
// itself drawn from the node's bundle of the shared string, as the paper
// specifies to ease the later elimination of shared randomness — and
// connected pairs run Transfer(ε). Theorem 5.1: O(kn) rounds w.h.p.
type SharedBit struct {
	st     *State
	shared *prand.SharedString
	planes *planes
}

var _ mtm.Protocol = (*SharedBit)(nil)

// NewSharedBit returns a SharedBit protocol over st using the given shared
// string (the simulation stand-in for r̂; see DESIGN.md §2.2).
func NewSharedBit(st *State, shared *prand.SharedString) *SharedBit {
	return &SharedBit{st: st, shared: shared, planes: newPlanes(st, shared, 1, 1)}
}

// State exposes the run state for instrumentation.
func (p *SharedBit) State() *State { return p.st }

// TagBits implements mtm.Protocol (b = 1).
func (p *SharedBit) TagBits() int { return 1 }

// Tag implements mtm.Protocol.
func (p *SharedBit) Tag(r int, u mtm.NodeID) uint64 {
	return p.planes.tag(r, p.st.sets[u])
}

// decideSharedBit is the SharedBit proposal rule: a node advertising 1
// (view.Tags[u]) proposes to a uniformly chosen 0-advertising neighbor, with the uniform index drawn
// from the shared string's bundle for this node's UID (uid = u+1). Shared by
// SimSharedBit.
func decideSharedBit(shared *prand.SharedString, r int, u mtm.NodeID, view mtm.View) mtm.Action {
	if view.Tags[u] == 0 {
		return mtm.Listen()
	}
	zeros := 0
	for _, v := range view.IDs {
		if view.Tags[v] == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		return mtm.Listen()
	}
	pick := shared.UniformIndex(r, u+1, zeros)
	for _, v := range view.IDs {
		if view.Tags[v] == 0 {
			if pick == 0 {
				return mtm.Propose(int(v))
			}
			pick--
		}
	}
	return mtm.Listen() // unreachable
}

// Decide implements mtm.Protocol.
func (p *SharedBit) Decide(r int, u mtm.NodeID, view mtm.View, _ *prand.RNG) mtm.Action {
	return decideSharedBit(p.shared, r, u, view)
}

// Exchange implements mtm.Protocol: run Transfer(ε).
func (p *SharedBit) Exchange(_ int, c *mtm.Conn) {
	eqtest.Transfer(c, p.st.sets[c.Initiator], p.st.sets[c.Responder], p.st.transferEps)
}

// Done implements mtm.Protocol.
func (p *SharedBit) Done() bool { return p.st.AllDone() }
