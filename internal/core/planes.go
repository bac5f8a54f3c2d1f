package core

import (
	"sync"
	"sync/atomic"

	"mobilegossip/internal/prand"
	"mobilegossip/internal/tokenset"
)

// planes holds one round group of one shared string in the token sets' own
// bit layout: plane j has bit t set iff bit j of token t's bundle in that
// group is 1, so a node's advertisement Σ_{t∈T_u} t.bits (mod 2, bitwise) is
// b word scans of T_u (tokenset.ParityAnd) instead of a PRF walk over its
// tokens. SharedBit is b = 1. This is the paper's own construction — one
// group of r̂ per round, one bundle per token — materialized for the round
// in progress.
//
// Only the run's assigned token ids get a bit: token sets are fed solely by
// NewState, Transfer (which moves a token one endpoint already holds) and
// RestoreFrom (which rejects any other id), so no other id is ever held,
// and a plane spans just the words those ids occupy.
//
// A plane is derived state, a pure function of (shared string, group): it is
// rebuilt by whichever call first asks for a new group and is never
// checkpointed. tag is safe for concurrent callers that name the same
// group: the stamp-then-mutex guard below makes exactly one of them fill
// the planes while the others wait, and no call reads words that another is
// writing. Which caller fills cannot affect a result.
type planes struct {
	st     *State
	shared *prand.SharedString
	b      int

	group atomic.Int64 // the round group words holds
	mu    sync.Mutex   // serializes fills
	words []uint64     // b planes of st.planeWords words, back to back
}

// newPlanes allocates the planes of shared's b-bit bundles and fills them
// for group, so steady-state rounds never allocate.
func newPlanes(st *State, shared *prand.SharedString, b, group int) *planes {
	pl := &planes{st: st, shared: shared, b: b, words: make([]uint64, b*st.planeWords)}
	pl.fill(group)
	return pl
}

// fill overwrites the bit of every assigned token in every plane; no other
// bit is ever set, so nothing needs clearing first.
func (pl *planes) fill(group int) {
	w := pl.st.planeWords
	for _, t := range pl.st.tokens {
		bundle := pl.shared.TokenBits(group, t, pl.b)
		i, s := t/64-pl.st.planeFirst, uint(t%64)
		for j := 0; j < pl.b; j++ {
			word := &pl.words[j*w+i]
			*word = *word&^(1<<s) | (bundle>>uint(j)&1)<<s
		}
	}
	pl.group.Store(int64(group))
}

// tag returns the b-bit advertisement of set in the given round group.
// Concurrent calls must name the same group.
func (pl *planes) tag(group int, set *tokenset.Set) uint64 {
	if pl.group.Load() != int64(group) {
		pl.mu.Lock()
		if pl.group.Load() != int64(group) {
			pl.fill(group)
		}
		pl.mu.Unlock()
	}
	w := pl.st.planeWords
	var tag uint64
	for j := 0; j < pl.b; j++ {
		tag |= set.ParityAnd(pl.words[j*w:(j+1)*w], pl.st.planeFirst) << uint(j)
	}
	return tag
}
