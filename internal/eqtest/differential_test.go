package eqtest

// EQTest and Transfer against the bodies they had before the prime draw was
// fused and counted, the sieve lookup hoisted and the equal-range shortcut
// added. Those bodies are kept here as the reference: one lock-guarded
// bitmap lookup and one Intn loop per prime, one fingerprint comparison per
// trial (through the two HashRange values, the definition HashRangeEqual is
// pinned to).
// Every execution must be identical: results, charged bits and tokens, the
// sets afterwards, and both endpoints' generator states.

import (
	"math"
	"math/bits"
	"testing"

	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/tokenset"
)

func refRandomPrime(rng *prand.RNG, limit uint64) uint64 {
	if limit < 5 {
		limit = 5
	}
	if limit <= maxSieveLimit {
		bm := primeBitmap(limit)
		for {
			q := 3 + uint64(rng.Intn(int(limit-2)))
			if bm[q>>6]&(1<<(q&63)) != 0 {
				return q
			}
		}
	}
	for {
		q := 3 + uint64(rng.Intn(int(limit-2)))
		if isPrime(q) {
			return q
		}
	}
}

func refEQTest(rng *prand.RNG, a, b *tokenset.Set, lo, hi, trials int) EQResult {
	if trials < 1 {
		trials = 1
	}
	limit := primeRangeFor(a.Universe())
	costPerTrial := 2*bits.Len64(limit) + 2
	res := EQResult{Equal: true}
	for i := 0; i < trials; i++ {
		q := refRandomPrime(rng, limit)
		res.Bits += costPerTrial
		if a.HashRange(lo, hi, q) != b.HashRange(lo, hi, q) {
			res.Equal = false
			return res
		}
	}
	return res
}

func refTransfer(c *mtm.Conn, a, b *tokenset.Set, eps float64) Outcome {
	n := a.Universe()
	trials := trialsFor(n, eps)
	rng := c.InitRNG
	var out Outcome

	lo, hi := 1, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		r := refEQTest(rng, a, b, lo, mid, trials)
		out.Bits += r.Bits
		if !r.Equal {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.ChargeBits(out.Bits + 2)
	out.Token = lo

	switch {
	case a.Has(lo) && !b.Has(lo):
		b.Add(lo)
		out.Moved, out.ToResponder = true, true
		c.ChargeTokens(1)
	case b.Has(lo) && !a.Has(lo):
		a.Add(lo)
		out.Moved, out.ToResponder = true, false
		c.ChargeTokens(1)
	}
	return out
}

// differentialPairs returns the set pairs the issue names for a universe
// [1, n] whose ids in use stop at top: equal sets, sets differing in one
// token at the low end, the middle and the high end (each direction),
// disjoint sets, and an empty side.
func differentialPairs(n, top int, rng *prand.RNG) [][2]*tokenset.Set {
	base := tokenset.NewSet(n)
	for t := 1; t <= top; t++ {
		if rng.Intn(3) == 0 {
			base.Add(t)
		}
	}
	pairs := [][2]*tokenset.Set{{base.Clone(), base.Clone()}}
	for _, t := range []int{1, top / 2, top} {
		if t < 1 {
			continue
		}
		with := base.Clone()
		with.Add(t)
		without := tokenset.NewSet(n)
		for _, x := range base.Tokens() {
			if x != t {
				without.Add(x)
			}
		}
		pairs = append(pairs,
			[2]*tokenset.Set{with.Clone(), without.Clone()},
			[2]*tokenset.Set{without, with})
	}
	odd, even := tokenset.NewSet(n), tokenset.NewSet(n)
	for t := 1; t <= top; t++ {
		if t%2 == 1 {
			odd.Add(t)
		} else {
			even.Add(t)
		}
	}
	return append(pairs,
		[2]*tokenset.Set{odd, even},
		[2]*tokenset.Set{tokenset.NewSet(n), base.Clone()},
		[2]*tokenset.Set{tokenset.NewSet(n), tokenset.NewSet(n)})
}

// refShapes are the universes the references are checked at, up to the
// benchmark's: N = 1,024 (wide-k) and N = 10,000 (dense-exchange, whose
// sieve runs to 1.28·10⁶).
var refShapes = []int{1, 2, 63, 64, 65, 300, 1024, 10000}

// epsFor is the ε values Transfer is checked at for universe n. Tight ε
// runs the full trial count; loose ε lets fingerprint collisions mislead
// the search, which must be reproduced too; at the benchmark's universes
// ε = N⁻³, the library default, gives the 34 and 44 trials an equal-range
// probe draws there.
func epsFor(n int) []float64 {
	if n < 1024 {
		return []float64{1e-9, 0.9}
	}
	return []float64{1e-9, 0.9, math.Pow(float64(n), -3)}
}

func TestEQTestMatchesReference(t *testing.T) {
	rng := prand.New(5150)
	for _, n := range refShapes {
		full := trialsFor(n, math.Pow(float64(n), -3))
		for pi, pair := range differentialPairs(n, n, rng) {
			a, b := pair[0], pair[1]
			for i := 0; i < 12; i++ {
				lo, hi := rng.Intn(n+2), rng.Intn(n+2)
				trials := rng.Intn(6) // 0 exercises the clamp to one trial
				if i%3 == 0 {
					trials = full
				}
				seed := rng.Uint64()
				got, ref := prand.New(seed), prand.New(seed)
				if g, w := EQTest(got, a, b, lo, hi, trials), refEQTest(ref, a, b, lo, hi, trials); g != w || got.State() != ref.State() {
					t.Fatalf("n=%d pair %d EQTest(%d,%d,%d) = %+v, reference %+v; states equal: %v",
						n, pi, lo, hi, trials, g, w, got.State() == ref.State())
				}
			}
		}
	}
}

func TestTransferMatchesReference(t *testing.T) {
	rng := prand.New(8086)
	for _, n := range refShapes {
		for pi, pair := range differentialPairs(n, n, rng) {
			for _, eps := range epsFor(n) {
				seed := rng.Uint64()
				a, b := pair[0].Clone(), pair[1].Clone()
				ra, rb := pair[0].Clone(), pair[1].Clone()
				c, rc := newConn(seed), newConn(seed)
				got, want := Transfer(c, a, b, eps), refTransfer(rc, ra, rb, eps)
				switch {
				case got != want:
					t.Fatalf("n=%d pair %d eps=%g: outcome %+v, reference %+v", n, pi, eps, got, want)
				case c.BitsUsed() != rc.BitsUsed() || c.TokensUsed() != rc.TokensUsed():
					t.Fatalf("n=%d pair %d eps=%g: charged %d bits %d tokens, reference %d and %d",
						n, pi, eps, c.BitsUsed(), c.TokensUsed(), rc.BitsUsed(), rc.TokensUsed())
				case c.InitRNG.State() != rc.InitRNG.State() || c.RespRNG.State() != rc.RespRNG.State():
					t.Fatalf("n=%d pair %d eps=%g: generator states diverged", n, pi, eps)
				case !a.Equal(ra) || !b.Equal(rb):
					t.Fatalf("n=%d pair %d eps=%g: sets diverged", n, pi, eps)
				}
			}
		}
	}
}

// spanBacked copies a pair onto one arena backed only for [1, maxID] — the
// form a run's sets take — leaving the universe-backed originals as the
// reference.
func spanBacked(pair [2]*tokenset.Set, maxID int) (a, b *tokenset.Set) {
	arena := tokenset.NewArena(2, pair[0].Universe(), maxID)
	for i, src := range pair {
		src.ForEach(arena.Set(i).Add)
	}
	return arena.Set(0), arena.Set(1)
}

// TestSpanBackedMatchesUniverseBacked: EQTest and Transfer over sets backed
// for the assigned id span must reproduce, draw for draw and bit for bit,
// what they do over sets backed for all of [1, N] — the binary search still
// runs over [1, N], so its probes and its closing Has(lo) routinely name ids
// past the backing.
func TestSpanBackedMatchesUniverseBacked(t *testing.T) {
	rng := prand.New(6809)
	for _, n := range []int{64, 65, 1000} {
		for _, maxID := range []int{1, 63, 64, 65, n - 1, n} {
			for pi, pair := range differentialPairs(n, maxID, rng) {
				sa, sb := spanBacked(pair, maxID)
				for i := 0; i < 6; i++ {
					lo, hi, trials, seed := rng.Intn(n+2), rng.Intn(n+2), 1+rng.Intn(5), rng.Uint64()
					got, ref := prand.New(seed), prand.New(seed)
					if g, w := EQTest(got, sa, sb, lo, hi, trials), EQTest(ref, pair[0], pair[1], lo, hi, trials); g != w || got.State() != ref.State() {
						t.Fatalf("N=%d maxID=%d pair %d EQTest(%d,%d,%d) = %+v, universe-backed %+v", n, maxID, pi, lo, hi, trials, g, w)
					}
				}
				for _, eps := range []float64{1e-9, 0.9} {
					seed := rng.Uint64()
					a, b := spanBacked(pair, maxID)
					ra, rb := pair[0].Clone(), pair[1].Clone()
					c, rc := newConn(seed), newConn(seed)
					got, want := Transfer(c, a, b, eps), Transfer(rc, ra, rb, eps)
					switch {
					case got != want:
						t.Fatalf("N=%d maxID=%d pair %d eps=%g: outcome %+v, universe-backed %+v", n, maxID, pi, eps, got, want)
					case c.BitsUsed() != rc.BitsUsed() || c.TokensUsed() != rc.TokensUsed():
						t.Fatalf("N=%d maxID=%d pair %d eps=%g: charged %d bits %d tokens, universe-backed %d and %d",
							n, maxID, pi, eps, c.BitsUsed(), c.TokensUsed(), rc.BitsUsed(), rc.TokensUsed())
					case c.InitRNG.State() != rc.InitRNG.State() || c.RespRNG.State() != rc.RespRNG.State():
						t.Fatalf("N=%d maxID=%d pair %d eps=%g: generator states diverged", n, maxID, pi, eps)
					case !a.Equal(ra) || !b.Equal(rb):
						t.Fatalf("N=%d maxID=%d pair %d eps=%g: sets diverged", n, maxID, pi, eps)
					}
				}
			}
		}
	}
}
