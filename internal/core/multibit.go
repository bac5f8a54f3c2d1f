package core

import (
	"fmt"

	"mobilegossip/internal/eqtest"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// MultiBit generalizes the SharedBit advertisement to tag length b ≥ 1.
//
// Each token receives b shared random bits per round group instead of one,
// and a node advertises the b-wise XOR over its token set:
//
//	tag_u(r)[j] = Σ_{t ∈ T_u(r)} t.bits[j]  (mod 2),  j = 0..b−1,
//
// so nodes with equal sets always advertise equal tags, and nodes with
// different sets advertise different tags with probability exactly
// 1 − 2^{−b} (the b-bit analogue of Lemma 5.2). The proposal rule
// generalizes SharedBit's 1-proposes-to-0: a node proposes to a uniformly
// chosen neighbor whose tag is numerically *smaller* than its own (for
// b = 1 this is exactly SharedBit), so every formed connection joins two
// nodes with different tags — hence, different sets — and Transfer(ε)
// makes progress.
//
// The paper's §1 remark — "for most of our solutions, increasing b beyond
// 1 only improves performance by at most logarithmic factors" — is what
// this variant exists to measure (experiment E15): the per-round good
// probability rises from ≥ 1/4 toward ≥ 1/2 as b grows, a bounded constant
// factor, while the O(kn) shape is unchanged.
type MultiBit struct {
	st     *State
	shared *prand.SharedString
	b      int
	planes *planes
}

var _ mtm.Protocol = (*MultiBit)(nil)

// NewMultiBit returns the b-bit generalization of SharedBit over st.
// b must be in [1, 64]; b = 1 behaves exactly like NewSharedBit.
func NewMultiBit(st *State, shared *prand.SharedString, b int) (*MultiBit, error) {
	if b < 1 || b > 64 {
		return nil, fmt.Errorf("core: multi-bit tag length %d outside [1, 64]", b)
	}
	return &MultiBit{st: st, shared: shared, b: b, planes: newPlanes(st, shared, b, 1)}, nil
}

// State exposes the run state for instrumentation.
func (p *MultiBit) State() *State { return p.st }

// TagBits implements mtm.Protocol.
func (p *MultiBit) TagBits() int { return p.b }

// Tag implements mtm.Protocol.
func (p *MultiBit) Tag(r int, u mtm.NodeID) uint64 {
	return p.planes.tag(r, p.st.sets[u])
}

// Decide implements mtm.Protocol: propose to a uniformly chosen neighbor
// advertising a numerically smaller tag; listen when no such neighbor
// exists. The uniform index is drawn from the shared string (as in
// SharedBit) so the whole execution remains a function of the shared
// randomness.
func (p *MultiBit) Decide(r int, u mtm.NodeID, view mtm.View, _ *prand.RNG) mtm.Action {
	own := view.Tags[u]
	smaller := 0
	for _, v := range view.IDs {
		if view.Tags[v] < own {
			smaller++
		}
	}
	if smaller == 0 {
		return mtm.Listen()
	}
	pick := p.shared.UniformIndex(r, u+1, smaller)
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

// Exchange implements mtm.Protocol: run Transfer(ε).
func (p *MultiBit) Exchange(_ int, c *mtm.Conn) {
	eqtest.Transfer(c, p.st.sets[c.Initiator], p.st.sets[c.Responder], p.st.transferEps)
}

// Done implements mtm.Protocol.
func (p *MultiBit) Done() bool { return p.st.AllDone() }
