// Package leader implements the BitConvergence leader-election substrate the
// reproduced paper imports from Newport's IPDPS'17 companion paper [22] and
// uses inside SimSharedBit (§5.2). The behavioural contract (all that §5.2
// relies on) is:
//
//   - every node maintains a candidate leader id plus a polylog(N)-bit
//     payload attached by that candidate;
//   - candidates converge, w.h.p. in O((1/α)·Δ^{1/τ}·polylog N) rounds, to
//     the globally smallest id, after which they never change;
//   - the algorithm needs no advance knowledge of α, Δ or τ, and uses b = 1.
//
// Our implementation spreads the minimum id through tag-steered random
// connections: each node advertises H(candidate, round) & 1 for a fixed
// public hash H, so neighbors with identical candidates always show the
// same bit while neighbors with different candidates show different bits
// with probability 1/2 (the same productive-connection device SharedBit
// uses for token sets, here applied to candidate ids). Nodes advertising 1
// propose to a uniform 0-advertising neighbor; a connected pair exchanges
// (candidate, payload) and both adopt the smaller candidate.
package leader

import (
	"math/bits"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// Protocol is a BitConvergence instance. It may be driven standalone via
// mtm.Engine or embedded (SimSharedBit interleaves its rounds).
type Protocol struct {
	ids     []int    // ids[u] = node u's UID
	cand    []int    // current candidate leader UID
	payload []uint64 // payload attached to the current candidate
	n       int
	uidBits int
	payBits int
}

var _ mtm.Protocol = (*Protocol)(nil)

// New returns a BitConvergence protocol. ids[u] is node u's UID (unique,
// drawn from [N]); payloads[u] is the polylog-bit payload node u would
// disseminate were it elected (SimSharedBit stores the node's R′ seed here).
func New(ids []int, payloads []uint64) *Protocol {
	n := len(ids)
	p := &Protocol{
		ids:     append([]int(nil), ids...),
		cand:    append([]int(nil), ids...),
		payload: append([]uint64(nil), payloads...),
		n:       n,
	}
	maxID := 0
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	p.uidBits = bits.Len(uint(maxID)) + 1
	p.payBits = 64
	return p
}

// Payload returns the payload node u currently associates with its candidate.
func (p *Protocol) Payload(u int) uint64 { return p.payload[u] }

// Converged reports whether all candidates agree.
func (p *Protocol) Converged() bool {
	for _, c := range p.cand[1:] {
		if c != p.cand[0] {
			return false
		}
	}
	return true
}

// Layout lays out the election's mutable state: the candidate and payload
// each node currently holds (ids and bit widths are construction
// constants).
func (p *Protocol) Layout(c ckpt.Fields) error {
	c.Section("leader")
	c.IntsInto(p.cand)
	c.U64sInto(p.payload)
	return c.Err()
}

// TagBits implements mtm.Protocol (b = 1).
func (p *Protocol) TagBits() int { return 1 }

// Tag implements mtm.Protocol: the public-hash candidate bit.
func (p *Protocol) Tag(r int, u mtm.NodeID) uint64 {
	return CandidateBit(r, p.cand[u])
}

// CandidateBit is the public hash H(candidate, round) & 1 shared by every
// node (a fixed deterministic function, not a randomness assumption).
func CandidateBit(r int, candidate int) uint64 {
	return prand.Mix64(uint64(r)*0x9e3779b97f4a7c15^uint64(candidate)) & 1
}

// Decide implements mtm.Protocol: 1-advertisers seek 0-advertisers.
func (p *Protocol) Decide(r int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
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
	pick := rng.Intn(zeros)
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

// Exchange implements mtm.Protocol: both endpoints adopt the smaller
// candidate along with its payload.
func (p *Protocol) Exchange(_ int, c *mtm.Conn) {
	u, v := c.Initiator, c.Responder
	c.ChargeBits(2 * (p.uidBits + p.payBits))
	switch {
	case p.cand[u] < p.cand[v]:
		p.cand[v], p.payload[v] = p.cand[u], p.payload[u]
	case p.cand[v] < p.cand[u]:
		p.cand[u], p.payload[u] = p.cand[v], p.payload[v]
	}
}

// Done implements mtm.Protocol: standalone runs stop at convergence.
// (SimSharedBit never drives this directly; it interleaves rounds itself.)
func (p *Protocol) Done() bool { return p.Converged() }
