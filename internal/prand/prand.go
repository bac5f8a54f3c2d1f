// Package prand provides the deterministic randomness substrate used by the
// gossip algorithms: a fast seedable PRNG, a keyed pseudorandom bit function
// standing in for the shared random string r̂ of SharedBit (§5.1 of the
// paper), and the poly(N)-size seed multiset R′ whose existence is proved by
// the paper's generalization of Newman's theorem (§5.2).
//
// All randomness in the repository flows from this package so that entire
// simulations are reproducible from a single 64-bit run seed.
package prand

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 passes BigCrush and is the standard seeder for xoshiro.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one SplitMix64 round. It is used to derive
// independent stream keys from (seed, label) pairs.
func Mix64(x uint64) uint64 {
	s := x
	return splitMix64(&s)
}

// StreamSeed splits the stream identified by base into independent
// substreams indexed by stream: two SplitMix64 rounds over an odd-multiplier
// spread of the index, so that adjacent indices (the common case for sweep
// grids) land in unrelated regions of the seed space. It is the primitive
// the sweep runner uses to give every (point, trial) grid cell its own
// deterministic seed, independent of worker count and completion order.
func StreamSeed(base, stream uint64) uint64 {
	return Mix64(base ^ Mix64(stream*0x9e3779b97f4a7c15+0x6a09e667f3bcc909))
}

// RNG is a small, fast, seedable PRNG (xoshiro256**). The zero value is not
// valid; construct with New. RNG is not safe for concurrent use; the engine
// gives each node its own RNG.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed via SplitMix64 expansion.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro must not start at the all-zero state; SplitMix64 of any seed
	// cannot produce four zero outputs in a row, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// State returns the generator's full internal state, for checkpointing.
// Restore with SetState; the stream continues exactly where it left off.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a snapshot taken
// by State. The all-zero state is invalid for xoshiro and is rejected by
// reseeding from a fixed constant (State never returns it).
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		r.Seed(0x9e3779b97f4a7c15)
		return
	}
	r.s = s
}

// Uint64 returns the next 64 uniform pseudorandom bits. The state goes back
// as one array assignment: that keeps the function under the inliner's
// budget, so the call disappears from every draw loop.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	r.s = [4]uint64{s0, s1, s2 ^ t, bits.RotateLeft64(s3, 45)}
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand; callers in this repository always pass validated n.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("prand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// IntnMember returns the count-th value of the stream off+Intn(n),
// off+Intn(n), ... whose bit is set in bitmap (bit q of the bitmap is
// bitmap[q/64]>>(q%64)&1; it must cover [off, off+n) and hold a member
// there, or the call does not return). The value and the generator's state
// afterwards are exactly those of count calls of the one-member loop; what
// is fused is the cost: the xoshiro state lives in locals across every
// candidate and is written back once, and a member found is a subtraction
// from count, not a loop exit, so the loop leaves once per call. Transfer(ε)
// draws its random primes this way, a dozen rejections per prime, and all
// of an equal-range probe's primes in one call.
func (r *RNG) IntnMember(n, off int, bitmap []uint64, count int) int {
	if n <= 0 || count <= 0 {
		panic("prand: IntnMember with non-positive n or count")
	}
	un := uint64(n)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var q uint64
	for count > 0 {
		v := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		hi, lo := bits.Mul64(v, un)
		q = uint64(off) + hi // hi < n, so a rejected draw still indexes the bitmap safely
		hit := int(bitmap[q>>6] >> (q & 63) & 1)
		// Lemire's rejection, as in Intn: its threshold is below un, so
		// testing lo < un first is the same decision and keeps the
		// division off all but about n in 2⁶⁴ draws. A rejected draw
		// counts nothing.
		if lo < un && lo < -un%un {
			hit = 0
		}
		count -= hit
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return int(q)
}

// FisherYates fills js[i] = Intn(i+1) for i = len(js)-1 down to 1, in that
// order, and leaves js[0] alone: the swap indices of a Fisher–Yates
// shuffle of len(js) elements. The indices do not depend on the swaps, so
// drawing them all first consumes exactly the stream of the shuffle loop;
// what is fused is the cost, as in IntnMember: the xoshiro state lives in
// locals across every draw and is written back once.
func (r *RNG) FisherYates(js []int32) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := len(js) - 1; i > 0; i-- {
		un := uint64(i + 1)
		for {
			v := bits.RotateLeft64(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			hi, lo := bits.Mul64(v, un)
			// Lemire's rejection, as in Intn and IntnMember.
			if lo < un && lo < -un%un {
				continue
			}
			js[i] = int32(hi)
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
