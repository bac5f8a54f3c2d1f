package prand

// SeedSpace models the multiset R′ of shared bit strings proved to exist by
// the paper's generalization of Newman's theorem (Lemma 5.5). R′ contains
// N^Θ(1) strings; a node refers to its chosen string by its index ("seed"),
// which fits in O(log N) bits and therefore in a leader-election payload.
//
// The paper's R′ is existential. Following the substitution documented in
// DESIGN.md §2.3, we instantiate R′ constructively as the family of keyed
// PRF streams indexed by seeds in [0, N³): a poly(N)-size multiset matching
// |R′| = N^Θ(1), each of whose members behaves like a uniform shared string
// for the statistics the algorithms consume.
type SeedSpace struct {
	size uint64
}

// NewSeedSpace returns the seed space R′ for a network-size upper bound N.
// Its size is min(N³, 2⁶²), poly(N) as required by Lemma 5.5.
func NewSeedSpace(n int) *SeedSpace {
	if n < 2 {
		n = 2
	}
	un := uint64(n)
	size := un * un * un
	if size/un/un != un || size >= 1<<62 { // overflow guard
		size = 1 << 62
	}
	return &SeedSpace{size: size}
}

// Size returns |R′|.
func (ss *SeedSpace) Size() uint64 { return ss.size }

// Sample draws a uniform seed index from R′ using the caller's private
// randomness, as each node does at the start of SimSharedBit (§5.2).
func (ss *SeedSpace) Sample(rng *RNG) uint64 {
	if ss.size == 0 {
		return 0
	}
	// Rejection sampling for uniformity over [0, size).
	mask := ss.size - 1
	if ss.size&mask == 0 { // power of two
		return rng.Uint64() & mask
	}
	for {
		v := rng.Uint64() % (1 << 62)
		if v < (1<<62)/ss.size*ss.size {
			return v % ss.size
		}
	}
}

// String materializes the shared string identified by seed index idx.
func (ss *SeedSpace) String(idx uint64) *SharedString {
	// Mix the index so nearby indices yield unrelated streams.
	return NewSharedString(Mix64(idx ^ 0x5851_f42d_4c95_7f2d))
}
