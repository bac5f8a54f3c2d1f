package core

import (
	"mobilegossip/internal/eqtest"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// BlindMatch is the §4 algorithm for the hardest regime b = 0, τ ≥ 1: in
// each round every node flips a fair coin to be a sender or a receiver;
// senders propose to a uniformly random neighbor; connected pairs run the
// Transfer(ε) subroutine, which moves the smallest token known by exactly
// one endpoint. Theorem 4.1: solves gossip in O((1/α)·k·Δ²·log²N) rounds
// w.h.p., and the Δ² cannot be avoided by blind strategies (the two-star
// lower bound of [22]).
type BlindMatch struct {
	st *State
}

var _ mtm.Protocol = (*BlindMatch)(nil)

// NewBlindMatch returns a BlindMatch protocol over st.
func NewBlindMatch(st *State) *BlindMatch { return &BlindMatch{st: st} }

// State exposes the run state for instrumentation.
func (p *BlindMatch) State() *State { return p.st }

// TagBits implements mtm.Protocol: BlindMatch advertises nothing.
func (p *BlindMatch) TagBits() int { return 0 }

// Tag implements mtm.Protocol.
func (p *BlindMatch) Tag(int, mtm.NodeID) uint64 { return 0 }

// Decide implements mtm.Protocol: fair coin, then a blind uniform proposal.
func (p *BlindMatch) Decide(_ int, _ mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	if rng.Bool() || len(view.IDs) == 0 {
		return mtm.Listen()
	}
	return mtm.Propose(int(view.IDs[rng.Intn(len(view.IDs))]))
}

// Exchange implements mtm.Protocol: run Transfer(ε) between the endpoints.
func (p *BlindMatch) Exchange(_ int, c *mtm.Conn) {
	eqtest.Transfer(c, p.st.sets[c.Initiator], p.st.sets[c.Responder], p.st.transferEps)
}

// Done implements mtm.Protocol.
func (p *BlindMatch) Done() bool { return p.st.AllDone() }
