// Package rumor implements the PPUSH rumor-spreading strategy of
// Ghaffari–Newport (DISC'16), used as a subroutine by the CrowdedBin gossip
// algorithm (§6 of the reproduced paper) and as a standalone baseline:
// informed nodes advertise 1, uninformed nodes advertise 0, and every
// informed node with at least one uninformed neighbor proposes to a
// uniformly chosen uninformed neighbor. Theorem 6.1: with b ≥ 1, τ = ∞ and
// expansion α, PPUSH spreads the rumor to all nodes in O(log⁴N/α) rounds
// w.h.p.
package rumor

import (
	"sync/atomic"

	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// Protocol is a standalone PPUSH instance over one rumor.
type Protocol struct {
	informed []bool
	// left counts uninformed nodes. Exchange decrements it atomically: the
	// round's connections form a matching, so the informed[] writes are
	// endpoint-disjoint, and the counter is the one piece of state every
	// exchange shares. The decrement is commutative, so the count — and
	// Done — do not depend on the order exchanges run in.
	left atomic.Int64
}

var _ mtm.Protocol = (*Protocol)(nil)

// New returns a PPUSH protocol over n nodes in which the nodes listed in
// sources start informed (duplicates and out-of-range entries are ignored).
// The rumor is opaque; each spread is metered as one token.
func New(n int, sources []int) *Protocol {
	p := &Protocol{informed: make([]bool, n)}
	p.left.Store(int64(n))
	for _, s := range sources {
		if s >= 0 && s < n && !p.informed[s] {
			p.informed[s] = true
			p.left.Add(-1)
		}
	}
	return p
}

// InformedCount returns the number of informed nodes.
func (p *Protocol) InformedCount() int { return len(p.informed) - int(p.left.Load()) }

// TagBits implements mtm.Protocol: PPUSH needs b = 1.
func (p *Protocol) TagBits() int { return 1 }

// Tag implements mtm.Protocol.
func (p *Protocol) Tag(_ int, u mtm.NodeID) uint64 {
	if p.informed[u] {
		return 1
	}
	return 0
}

// Decide implements mtm.Protocol: PPUSH's single rule.
func (p *Protocol) Decide(_ int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	if !p.informed[u] {
		return mtm.Listen()
	}
	return DecidePush(view, rng)
}

// DecidePush is the PPUSH proposal rule given a scan view: propose to a
// uniformly random neighbor advertising 0, or listen if none. Exported so
// CrowdedBin can run PPUSH sub-rounds without instantiating a Protocol.
func DecidePush(view mtm.View, rng *prand.RNG) mtm.Action {
	uninformed := 0
	for _, v := range view.IDs {
		if view.Tags[v] == 0 {
			uninformed++
		}
	}
	if uninformed == 0 {
		return mtm.Listen()
	}
	pick := rng.Intn(uninformed)
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

// Exchange implements mtm.Protocol: the initiator is informed (it proposed),
// so the responder learns the rumor.
func (p *Protocol) Exchange(_ int, c *mtm.Conn) {
	c.ChargeTokens(1)
	c.ChargeBits(1)
	if p.informed[c.Initiator] && !p.informed[c.Responder] {
		p.informed[c.Responder] = true
		p.left.Add(-1)
	}
}

// Done implements mtm.Protocol.
func (p *Protocol) Done() bool { return p.left.Load() == 0 }
