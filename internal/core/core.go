// Package core implements the paper's primary contribution: the gossip
// algorithms for the mobile telephone model.
//
//   - BlindMatch   — b = 0, τ ≥ 1 (§4):  O((1/α)·k·Δ²·log²n)
//   - SharedBit    — b = 1, τ ≥ 1, shared randomness (§5.1):  O(kn)
//   - SimSharedBit — b = 1, τ ≥ 1, no shared randomness (§5.2):
//     O(kn + (1/α)·Δ^{1/τ}·log⁶n)
//   - CrowdedBin   — b = 1, τ = ∞ (§6):  O((1/α)·k·log⁶n)
//   - ε-gossip     — SharedBit re-analyzed (§7):
//     O(n·√(Δ·logΔ) / ((1−ε)·α))
//
// Every algorithm is an mtm.Protocol driven by mtm.Engine over a
// dyngraph.Dynamic topology schedule.
package core

import (
	"fmt"
	"slices"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/tokenset"
)

// Assignment places the k tokens on their starting nodes: Owners[i] is the
// node (0-based) that starts with token ids Tokens[i] (1-based ids in
// [1, Universe]). No token may start on two nodes; a node may start several.
type Assignment struct {
	Universe int   // N: the token/UID space bound (≥ n and ≥ max token id)
	Tokens   []int // token ids
	Owners   []int // Owners[i] starts with Tokens[i]
}

// Validate checks structural invariants of the assignment for n nodes.
func (a Assignment) Validate(n int) error {
	if len(a.Tokens) != len(a.Owners) {
		return fmt.Errorf("core: %d tokens but %d owners", len(a.Tokens), len(a.Owners))
	}
	if a.Universe < n {
		return fmt.Errorf("core: universe %d smaller than n=%d", a.Universe, n)
	}
	seen := make(map[int]bool, len(a.Tokens))
	for i, t := range a.Tokens {
		if t < 1 || t > a.Universe {
			return fmt.Errorf("core: token id %d outside [1,%d]", t, a.Universe)
		}
		if seen[t] {
			return fmt.Errorf("core: token id %d assigned twice", t)
		}
		seen[t] = true
		if o := a.Owners[i]; o < 0 || o >= n {
			return fmt.Errorf("core: owner %d outside [0,%d)", o, n)
		}
	}
	return nil
}

// OneTokenPerNode returns the canonical assignment used throughout the
// paper's discussion: the first k nodes each start with one token whose id
// is the node's UID (node u has UID u+1); Universe = n.
func OneTokenPerNode(n, k int) Assignment {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	a := Assignment{Universe: n, Tokens: make([]int, k), Owners: make([]int, k)}
	for i := 0; i < k; i++ {
		a.Tokens[i] = i + 1
		a.Owners[i] = i
	}
	return a
}

// State is the per-run gossip state shared by all algorithms: every node's
// token set over [1, N], plus completion tracking. The per-node sets live on
// a single flat tokenset.Arena indexed by NodeID and backed only for the
// assigned id span [1, max token id] — the ids a set can ever hold — so a
// million-node run with a handful of tokens costs one allocation of a word
// or two per node, not N/64 words per node.
type State struct {
	n           int
	universe    int
	k           int
	arena       *tokenset.Arena
	sets        []*tokenset.Set
	transferEps float64
	done        bool

	// The assigned token ids — the only ids a set can ever hold — and the
	// word span [planeFirst, planeFirst+planeWords) of the set layout they
	// occupy, which is all an advertisement plane has to cover (planes.go).
	tokens     []int
	planeFirst int
	planeWords int
}

// NewState builds run state for n nodes from an assignment. transferEps is
// the per-call failure bound handed to Transfer(ε); the paper uses n^{-c}.
func NewState(n int, a Assignment, transferEps float64) (*State, error) {
	if err := a.Validate(n); err != nil {
		return nil, err
	}
	st := &State{n: n, universe: a.Universe, k: len(a.Tokens), transferEps: transferEps}
	st.tokens = slices.Clone(a.Tokens)
	maxID := 0
	if st.k > 0 {
		maxID = slices.Max(st.tokens)
		st.planeFirst = slices.Min(st.tokens) / 64
		st.planeWords = maxID/64 - st.planeFirst + 1
	}
	st.arena = tokenset.NewArena(n, a.Universe, maxID)
	st.sets = st.arena.Sets()
	for i, t := range a.Tokens {
		st.sets[a.Owners[i]].Add(t)
	}
	st.done = tokenset.AllKnowAll(st.sets, st.k)
	return st, nil
}

// N returns the node count.
func (st *State) N() int { return st.n }

// K returns the token count.
func (st *State) K() int { return st.k }

// Universe returns the token-space bound N.
func (st *State) Universe() int { return st.universe }

// Set returns node u's token set (live, not a copy).
func (st *State) Set(u mtm.NodeID) *tokenset.Set { return st.sets[u] }

// Sets returns the live per-node token sets.
func (st *State) Sets() []*tokenset.Set { return st.sets }

// Potential returns φ(r) = Σ_u (k − |T_u|).
func (st *State) Potential() int { return tokenset.Potential(st.sets, st.k) }

// AllDone reports (and then caches) whether all nodes know all k tokens.
func (st *State) AllDone() bool {
	if st.done {
		return true
	}
	st.done = tokenset.AllKnowAll(st.sets, st.k)
	return st.done
}

// Layout lays out the mutable run state: every node's token set
// (delta-encoded, O(tokens learned)) and the completion cache. A read loads
// it into a State freshly built from the same configuration: sets only
// grow, so adding the checkpointed membership over the initial assignment
// reproduces the snapshot exactly.
func (st *State) Layout(c ckpt.Fields) error {
	c.Section("core.state")
	n, universe, done := st.n, st.universe, st.done
	c.Int(&n)
	c.Int(&universe)
	c.Bool(&done)
	if err := c.Err(); err != nil {
		return err
	}
	if n != st.n || universe != st.universe {
		return fmt.Errorf("core: checkpoint for n=%d universe=%d, state has n=%d universe=%d",
			n, universe, st.n, st.universe)
	}
	var assigned *tokenset.Set
	if c.Reading() {
		assigned = tokenset.NewSet(st.universe)
		for _, t := range st.tokens {
			assigned.Add(t)
		}
	}
	for u, s := range st.sets {
		if err := s.Layout(c); err != nil {
			return err
		}
		if assigned == nil {
			continue
		}
		// An id outside the assignment can be held only by a corrupted
		// stream; everything keyed on the assigned ids relies on that.
		stray := 0
		s.ForEach(func(t int) {
			if !assigned.Has(t) {
				stray = t
			}
		})
		if stray != 0 {
			return fmt.Errorf("core: checkpoint gives node %d token %d, which the assignment never placed", u, stray)
		}
	}
	st.done = done
	return c.Err()
}
