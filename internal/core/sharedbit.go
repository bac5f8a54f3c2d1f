package core

import (
	"fmt"

	"mobilegossip/internal/eqtest"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// SharedBit is the §5.1 algorithm under a shared randomness source, with
// tags of b ≥ 1 bits. In round r node u advertises
//
//	tag_u(r)[j] = Σ_{t ∈ T_u(r)} t.bits[j]  (mod 2),  j = 0..b−1,
//
// zero for empty sets, where t.bits are the b shared random bits assigned to
// token t in round group r (Lemma 5.2 for b = 1: nodes with equal sets
// advertise equal tags; nodes with different sets differ with probability
// exactly 1 − 2^{−b}). A node proposes to a uniformly chosen neighbor whose
// tag is numerically smaller than its own — for b = 1, a node advertising 1
// to one advertising 0 — the uniform choice itself drawn from the node's
// bundle of the shared string, as the paper specifies to ease the later
// elimination of shared randomness; connected pairs run Transfer(ε), and
// every connection joins two nodes with different sets. Theorem 5.1: O(kn)
// rounds w.h.p.
//
// b = 1 is the paper's algorithm. The §1 remark — "for most of our
// solutions, increasing b beyond 1 only improves performance by at most
// logarithmic factors" — is what b ≥ 2 exists to measure (experiment E15):
// the per-round good probability rises from ≥ 1/4 toward ≥ 1/2 as b grows,
// a bounded constant factor, while the O(kn) shape is unchanged.
type SharedBit struct {
	st     *State
	shared *prand.SharedString
	b      int
	planes *planes
}

var _ mtm.Protocol = (*SharedBit)(nil)

// NewSharedBit returns a SharedBit protocol with b-bit tags over st, using
// the given shared string (the simulation stand-in for r̂; see DESIGN.md
// §2.2). b must be in [1, 64].
func NewSharedBit(st *State, shared *prand.SharedString, b int) (*SharedBit, error) {
	if b < 1 || b > 64 {
		return nil, fmt.Errorf("core: SharedBit tag length %d outside [1, 64]", b)
	}
	return &SharedBit{st: st, shared: shared, b: b, planes: newPlanes(st, shared, b, 1)}, nil
}

// State exposes the run state for instrumentation.
func (p *SharedBit) State() *State { return p.st }

// TagBits implements mtm.Protocol.
func (p *SharedBit) TagBits() int { return p.b }

// Tag implements mtm.Protocol.
func (p *SharedBit) Tag(r int, u mtm.NodeID) uint64 {
	return p.planes.tag(r, p.st.sets[u])
}

// decideSharedBit is the SharedBit proposal rule: a node proposes to a
// uniformly chosen neighbor advertising a numerically smaller tag
// (view.Tags), with the uniform index drawn from the shared string's bundle
// for this node's UID (uid = u+1); it listens when no neighbor does, and
// without a scan when its own tag is 0. Shared by SimSharedBit.
func decideSharedBit(shared *prand.SharedString, r int, u mtm.NodeID, view mtm.View) mtm.Action {
	own := view.Tags[u]
	if own == 0 {
		return mtm.Listen()
	}
	smaller := 0
	for _, v := range view.IDs {
		if view.Tags[v] < own {
			smaller++
		}
	}
	if smaller == 0 {
		return mtm.Listen()
	}
	pick := shared.UniformIndex(r, u+1, smaller)
	for _, v := range view.IDs {
		if view.Tags[v] < own {
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
