// Package eqtest implements §3 of the paper: the randomized set-equality
// test EQTest from two-party communication complexity, and the Transfer(ε)
// subroutine built on it. Transfer lets two connected nodes with token sets
// T_u ≠ T_v identify — using only O(log²N · log(logN/ε)) exchanged control
// bits — the smallest token in the symmetric difference, which the owner
// then transfers.
//
// EQTest uses Rabin set fingerprinting with private randomness: encode a set
// S ⊆ [N] as the integer Σ_{t∈S} 2^t; one party draws a random prime q from
// a range with ≥ 2N primes and sends (q, fingerprint mod q). Equal sets
// always agree; unequal sets collide with probability ≤ 1/2 per trial
// (the nonzero difference integer is < 2^{N+1} and so has ≤ N+1 prime
// divisors). Trials are independent, so c trials drive the one-sided error
// to 2^{-c} — exactly the contract §3 assumes.
package eqtest

import (
	"math"
	"math/bits"
	"sync"

	"mobilegossip/internal/modmath"

	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/tokenset"
)

// primeRangeFor returns the upper end T of the prime sampling range for
// universe size n, chosen so that [2, T] contains comfortably more than 2n
// primes (π(T) ≈ T/ln T ≥ 2n for T = 8·n·(log₂ n + 2)).
func primeRangeFor(n int) uint64 {
	if n < 4 {
		n = 4
	}
	lg := uint64(bits.Len(uint(n))) + 2
	return 8 * uint64(n) * lg
}

// maxSieveLimit bounds the prime-range size for which the prime draw uses a
// cached sieve bitmap (2^28 → a 32 MiB bitmap, reached only for universes
// beyond ~1.5M tokens). Larger ranges fall back to per-candidate
// Miller–Rabin.
const maxSieveLimit = 1 << 28

// The cache holds a single bitmap: a sieve for limit L answers every
// limit ≤ L (the lookup only indexes bits ≤ limit), so the cache grows
// monotonically to the largest range requested — at most one ~32 MiB
// bitmap per process, not one per universe size in a mixed-size sweep.
var (
	sieveMu    sync.RWMutex
	sieveLimit uint64
	sieveBits  []uint64
)

// primeBitmap returns (building and caching on first use) a primality
// bitmap covering at least [0, limit]. The prime range is a function of the
// token universe alone, so a whole sweep shares one bitmap.
func primeBitmap(limit uint64) []uint64 {
	sieveMu.RLock()
	bm, cached := sieveBits, sieveLimit
	sieveMu.RUnlock()
	if cached >= limit {
		return bm
	}
	sieveMu.Lock()
	defer sieveMu.Unlock()
	if sieveLimit >= limit {
		return sieveBits
	}
	sieveBits = buildSieve(limit)
	sieveLimit = limit
	return sieveBits
}

// buildSieve runs Eratosthenes over [0, limit] into a bitmap.
func buildSieve(limit uint64) []uint64 {
	bm := make([]uint64, limit/64+1)
	for i := range bm {
		bm[i] = ^uint64(0)
	}
	bm[0] &^= 3 // 0 and 1 are not prime
	for p := uint64(2); p*p <= limit; p++ {
		if bm[p>>6]&(1<<(p&63)) == 0 {
			continue
		}
		for c := p * p; c <= limit; c += p {
			bm[c>>6] &^= 1 << (c & 63)
		}
	}
	return bm
}

// primes is what every prime draw and fingerprint trial over one token
// universe shares. Transfer resolves it once per connection, so the sieve
// cache's lock is touched once per connection instead of once per prime
// (about 128 of them at n = 10⁴, ε = n⁻³).
type primes struct {
	limit        uint64   // primes are drawn uniformly from [3, limit]
	sieve        []uint64 // primality bitmap over [0, limit]; nil above maxSieveLimit
	bitsPerTrial int      // q + fingerprint + framing
}

func primesFor(universe int) primes {
	limit := primeRangeFor(universe)
	p := primes{limit: limit, bitsPerTrial: 2*bits.Len64(limit) + 2}
	if limit <= maxSieveLimit {
		// A published bitmap is never written again, so it can be held for
		// the whole connection without the lock.
		p.sieve = primeBitmap(limit)
	}
	return p
}

// nth samples count uniform primes in [3, limit] by rejection and returns
// the last; nth(rng, 1) is one random prime. The candidate primality test
// is a sieve-bitmap lookup for realistic ranges (identical accept/reject
// decisions to Miller–Rabin, so executions are unchanged), fused with the
// candidate draw in prand.IntnMember; the deterministic Miller–Rabin is the
// unbounded-range fallback. Either way the generator ends where count
// single draws would leave it. Transfer(ε) draws hundreds of primes per
// connection, which makes this the simulator's hottest path.
func (p primes) nth(rng *prand.RNG, count int) uint64 {
	if p.sieve != nil {
		return uint64(rng.IntnMember(int(p.limit-2), 3, p.sieve, count))
	}
	var q uint64
	for count > 0 {
		q = 3 + uint64(rng.Intn(int(p.limit-2)))
		if isPrime(q) {
			count--
		}
	}
	return q
}

// Miller–Rabin witness sets, each proven sufficient for deterministic
// primality below its threshold (Pomerance–Selfridge–Wagstaff / Jaeschke /
// Sinclair bounds). The prime-sampling range for a universe of n tokens is
// ~8·n·log n, so realistic simulations stay in the 2- or 4-witness tiers —
// a 3–6× cut over always running the full 12-witness battery, with decisions
// (and therefore executions) unchanged.
var mrTiers = []struct {
	below     uint64
	witnesses []uint64
}{
	{2_047, []uint64{2}},
	{1_373_653, []uint64{2, 3}},
	{3_215_031_751, []uint64{2, 3, 5, 7}},
	{3_474_749_660_383, []uint64{2, 3, 5, 7, 11, 13}},
	{341_550_071_728_321, []uint64{2, 3, 5, 7, 11, 13, 17}},
	{^uint64(0), []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}},
}

// isPrime is a deterministic Miller–Rabin test valid for all uint64.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	witnesses := mrTiers[len(mrTiers)-1].witnesses
	for _, tier := range mrTiers {
		if n < tier.below {
			witnesses = tier.witnesses
			break
		}
	}
	for _, a := range witnesses {
		x := powMod(a%n, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// powMod and mulMod are inlinable wrappers over the shared implementations
// in internal/modmath (also used by tokenset's fingerprinting, which must
// stay bit-identical to this package's arithmetic).
func powMod(b, e, m uint64) uint64 { return modmath.PowMod(b, e, m) }
func mulMod(a, b, m uint64) uint64 { return modmath.MulMod(a, b, m) }

// EQResult reports one equality test's outcome and its communication cost.
type EQResult struct {
	Equal bool
	Bits  int
}

// EQTest tests the equality of a∩[lo,hi] and b∩[lo,hi] with `trials`
// independent fingerprint rounds using rng as the initiator's private
// randomness. One-sided error: equal restrictions are always reported
// equal; unequal restrictions are reported equal with probability at most
// 2^{-trials}.
func EQTest(rng *prand.RNG, a, b *tokenset.Set, lo, hi, trials int) EQResult {
	return primesFor(a.Universe()).eqTest(rng, a, b, lo, hi, max(trials, 1))
}

func (p primes) eqTest(rng *prand.RNG, a, b *tokenset.Set, lo, hi, trials int) EQResult {
	// Equal restrictions pass every trial whatever prime is drawn, so the
	// probe's outcome is known from one exact word scan: the trials' primes
	// are still drawn, in one counted draw that leaves rng where the trials
	// would, but no fingerprint is computed.
	if tokenset.RangeEqual(a, b, lo, hi) {
		p.nth(rng, trials)
		return EQResult{Equal: true, Bits: trials * p.bitsPerTrial}
	}
	res := EQResult{Equal: true}
	for i := 0; i < trials; i++ {
		q := p.nth(rng, 1)
		res.Bits += p.bitsPerTrial
		// Difference-based fingerprint comparison: same decision (and same
		// collision probability) as comparing the two HashRange values, but
		// words where the sets agree cost one XOR and no modular math.
		if !tokenset.HashRangeEqual(a, b, lo, hi, q) {
			res.Equal = false
			return res
		}
	}
	return res
}

// trialsFor computes ε′ = ⌈log₂(log₂ N / ε)⌉, the per-EQTest trial count
// Transfer(ε) uses so that a union bound over the ⌈log₂ N⌉ binary-search
// steps keeps the total failure probability below ε (§3).
func trialsFor(n int, eps float64) int {
	if eps <= 0 {
		eps = 1e-12
	}
	if eps >= 1 {
		eps = 0.5
	}
	lgN := float64(bits.Len(uint(n)))
	if lgN < 1 {
		lgN = 1
	}
	t := int(math.Ceil(math.Log2(lgN / eps)))
	if t < 1 {
		t = 1
	}
	return t
}

// Outcome describes what a Transfer call did.
type Outcome struct {
	// Moved reports whether a token was transferred.
	Moved bool
	// Token is the identified smallest symmetric-difference token when
	// Moved (or when identified but owned by neither endpoint — impossible
	// for correct searches, possible under fingerprint failure).
	Token int
	// ToResponder reports the transfer direction when Moved.
	ToResponder bool
	// Bits is the total control-bit cost of the call.
	Bits int
}

// Transfer runs the Transfer(ε) subroutine of §3 over connection c between
// the initiator's token set a and the responder's token set b, both subsets
// of [1, N]. With probability ≥ 1−ε it identifies the smallest token in the
// symmetric difference (if any) and moves it from the endpoint that knows
// it into the other's set, charging the connection for all control bits and
// the token payload. If the sets are equal it moves nothing.
func Transfer(c *mtm.Conn, a, b *tokenset.Set, eps float64) Outcome {
	n := a.Universe()
	trials := trialsFor(n, eps)
	ps := primesFor(n)
	rng := c.InitRNG
	var out Outcome

	lo, hi := 1, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		r := ps.eqTest(rng, a, b, lo, mid, trials)
		out.Bits += r.Bits
		if !r.Equal {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.ChargeBits(out.Bits + 2) // plus direction/ownership framing
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
	default:
		// Sets equal (nothing to move) or the search was misled by a
		// fingerprint collision (probability < ε).
	}
	return out
}
