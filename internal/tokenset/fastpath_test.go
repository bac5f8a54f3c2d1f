package tokenset

// Tests pinning the fingerprint fast paths to their reference definitions:
// HashRange's incremental powers and span clipping against the naive
// per-token powMod sum, and HashRangeEqual's difference-based comparison
// against comparing two full fingerprints (collision behavior included —
// tiny moduli make collisions frequent below), RangeEqual's word scan
// against comparing the two restrictions token by token, and ParityAnd
// against counting the intersection.

import (
	"testing"

	"mobilegossip/internal/prand"
)

// naiveHashRange is the pre-optimization definition kept as a test oracle.
func naiveHashRange(s *Set, lo, hi int, q uint64) uint64 {
	if lo < 1 {
		lo = 1
	}
	if hi > s.n {
		hi = s.n
	}
	var sum uint64
	for t := 1; t <= s.n; t++ {
		if t < lo || t > hi || !s.Has(t) {
			continue
		}
		sum = (sum + powMod(2, uint64(t), q)) % q
	}
	return sum
}

func randomSetPair(n int, rng *prand.RNG) (*Set, *Set) {
	a, b := NewSet(n), NewSet(n)
	for t := 1; t <= n; t++ {
		switch rng.Intn(5) {
		case 0:
			a.Add(t)
		case 1:
			b.Add(t)
		case 2:
			a.Add(t)
			b.Add(t)
		}
	}
	return a, b
}

func TestHashRangeMatchesNaive(t *testing.T) {
	rng := prand.New(31337)
	qs := []uint64{2, 3, 5, 97, 65537, 4294967311} // incl. q > 2^32
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		a, _ := randomSetPair(n, rng)
		for i := 0; i < 10; i++ {
			lo := 1 + rng.Intn(n)
			hi := 1 + rng.Intn(n)
			q := qs[rng.Intn(len(qs))]
			if got, want := a.HashRange(lo, hi, q), naiveHashRange(a, lo, hi, q); got != want {
				t.Fatalf("HashRange(%d,%d,%d) = %d, want %d (n=%d)", lo, hi, q, got, want, n)
			}
		}
	}
}

func TestHashRangeEqualMatchesFingerprintComparison(t *testing.T) {
	rng := prand.New(99991)
	// Small moduli make fingerprint collisions (unequal restrictions with
	// equal hashes) common, exercising the "equal by collision" branch that
	// the difference-based path must reproduce exactly.
	qs := []uint64{2, 3, 5, 7, 11, 127, 1_000_003, 4294967311}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		a, b := randomSetPair(n, rng)
		for i := 0; i < 12; i++ {
			lo := 1 + rng.Intn(n)
			hi := 1 + rng.Intn(n)
			q := qs[rng.Intn(len(qs))]
			got := HashRangeEqual(a, b, lo, hi, q)
			want := a.HashRange(lo, hi, q) == b.HashRange(lo, hi, q)
			if got != want {
				t.Fatalf("HashRangeEqual(%d,%d,%d) = %v, want %v (n=%d)",
					lo, hi, q, got, want, n)
			}
		}
	}
}

// restrict is the clone-and-compare oracle's half: s ∩ [lo, hi] as a fresh
// set, token by token.
func restrict(s *Set, lo, hi int) *Set {
	out := NewSet(s.n)
	for t := max(lo, 1); t <= min(hi, s.n); t++ {
		if s.Has(t) {
			out.Add(t)
		}
	}
	return out
}

func TestRangeEqualMatchesRestrictedCompare(t *testing.T) {
	rng := prand.New(271828)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		a, b := randomSetPair(n, rng)
		switch trial % 4 {
		case 1: // equal sets: every range is equal
			b = a.Clone()
		case 2: // one differing token, so most ranges are equal
			b = a.Clone()
			b.Add(1 + rng.Intn(n))
		case 3: // an empty side
			a = NewSet(n)
		}
		for i := 0; i < 20; i++ {
			// Out-of-universe and inverted ranges included.
			lo, hi := rng.Intn(n+3)-1, rng.Intn(n+3)-1
			got := RangeEqual(a, b, lo, hi)
			want := restrict(a, lo, hi).Equal(restrict(b, lo, hi))
			if got != want {
				t.Fatalf("RangeEqual(%d,%d) = %v, want %v (n=%d a=%v b=%v)",
					lo, hi, got, want, n, a.Tokens(), b.Tokens())
			}
			if sym := RangeEqual(b, a, lo, hi); sym != got {
				t.Fatalf("RangeEqual(%d,%d) not symmetric (n=%d)", lo, hi, n)
			}
		}
	}
}

func TestParityAndMatchesPerTokenCount(t *testing.T) {
	rng := prand.New(161803)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		s, p := randomSetPair(n, rng)
		if trial%5 == 0 {
			s = NewSet(n)
		}
		// The plane covers words [first, first+len): any span that holds
		// both sets, as a caller sizing it from the ids it can ever hold.
		first, last := 0, n/64
		if s.count > 0 && p.count > 0 {
			first, last = min(s.minW, p.minW), max(s.maxW, p.maxW)
		}
		plane := make([]uint64, last-first+1)
		copy(plane, p.words[first:last+1])
		want := uint64(0)
		s.ForEach(func(tok int) {
			if p.Has(tok) {
				want ^= 1
			}
		})
		if got := s.ParityAnd(plane, first); got != want {
			t.Fatalf("ParityAnd = %d, want %d (n=%d s=%v p=%v)", got, want, n, s.Tokens(), p.Tokens())
		}
	}
}
