package eqtest

import (
	"testing"
	"testing/quick"

	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/tokenset"
)

func newConn(seed uint64) *mtm.Conn {
	return mtm.NewConn(1, 0, 1, prand.New(seed), prand.New(seed+1), 1<<30, 1<<30)
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{2: true, 3: true, 5: true, 7: true, 11: true,
		13: true, 97: true, 7919: true, 2305843009213693951: true}
	composites := []uint64{0, 1, 4, 6, 9, 15, 91 /*7·13*/, 7917, 1 << 40}
	for p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
}

func TestIsPrimeAgainstSieve(t *testing.T) {
	const limit = 2000
	sieve := make([]bool, limit) // true = composite
	for i := 2; i*i < limit; i++ {
		if !sieve[i] {
			for j := i * i; j < limit; j += i {
				sieve[j] = true
			}
		}
	}
	for n := 2; n < limit; n++ {
		if got, want := isPrime(uint64(n)), !sieve[n]; got != want {
			t.Fatalf("isPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestRandomPrimeInRange(t *testing.T) {
	// The sieve draw and the Miller–Rabin fallback must be the same stream.
	sieved := primes{limit: 1000, sieve: primeBitmap(1000)}
	fallback := primes{limit: 1000}
	rs, rf := prand.New(1), prand.New(1)
	for i := 0; i < 200; i++ {
		q := sieved.nth(rs, 1)
		if q < 3 || q > 1000 || !isPrime(q) {
			t.Fatalf("random prime %d", q)
		}
		if f := fallback.nth(rf, 1); f != q || rs.State() != rf.State() {
			t.Fatalf("draw %d: sieve path %d, Miller–Rabin path %d", i, q, f)
		}
	}
	// A counted draw on either path is count single draws of the fallback.
	for _, c := range []int{2, 7, 34, 44} {
		single, rs, rf := prand.New(uint64(c)), prand.New(uint64(c)), prand.New(uint64(c))
		var want uint64
		for i := 0; i < c; i++ {
			want = fallback.nth(single, 1)
		}
		if f := fallback.nth(rf, c); f != want || rf.State() != single.State() {
			t.Fatalf("Miller–Rabin nth(%d) = %d, %d single draws end at %d", c, f, c, want)
		}
		if q := sieved.nth(rs, c); q != want || rs.State() != single.State() {
			t.Fatalf("sieve nth(%d) = %d, %d single draws end at %d", c, q, c, want)
		}
	}
}

func TestEQTestEqualSetsNeverFail(t *testing.T) {
	// One-sided error: equal sets must always test equal.
	rng := prand.New(2)
	a, b := tokenset.NewSet(256), tokenset.NewSet(256)
	for _, tok := range []int{1, 7, 100, 255} {
		a.Add(tok)
		b.Add(tok)
	}
	for i := 0; i < 500; i++ {
		if r := EQTest(rng, a, b, 1, 256, 1); !r.Equal {
			t.Fatal("equal sets reported unequal")
		}
	}
}

func TestEQTestSingleTrialErrorBelowHalf(t *testing.T) {
	// Unequal sets must be detected with probability >= 1/2 per trial.
	rng := prand.New(3)
	a, b := tokenset.NewSet(256), tokenset.NewSet(256)
	a.Add(42)
	wrong := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if r := EQTest(rng, a, b, 1, 256, 1); r.Equal {
			wrong++
		}
	}
	if wrong > trials/2 {
		t.Fatalf("single-trial EQTest error rate %d/%d > 1/2", wrong, trials)
	}
}

func TestEQTestErrorDropsExponentially(t *testing.T) {
	rng := prand.New(4)
	a, b := tokenset.NewSet(128), tokenset.NewSet(128)
	a.Add(5)
	b.Add(6)
	wrong := 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		if r := EQTest(rng, a, b, 1, 128, 8); r.Equal {
			wrong++
		}
	}
	// With 8 trials error ≤ 2^-8; expect ~12 misses in 3000 worst case.
	if wrong > 60 {
		t.Fatalf("8-trial EQTest error rate %d/%d far above 2^-8", wrong, trials)
	}
}

func TestEQTestRespectsRange(t *testing.T) {
	rng := prand.New(5)
	a, b := tokenset.NewSet(100), tokenset.NewSet(100)
	a.Add(90) // difference outside the queried range
	for i := 0; i < 100; i++ {
		if r := EQTest(rng, a, b, 1, 50, 4); !r.Equal {
			t.Fatal("restriction to [1,50] is equal but reported unequal")
		}
	}
}

func TestEQTestBitsAccounted(t *testing.T) {
	rng := prand.New(6)
	a, b := tokenset.NewSet(64), tokenset.NewSet(64)
	r := EQTest(rng, a, b, 1, 64, 5)
	if r.Bits <= 0 {
		t.Fatal("no bits charged")
	}
	// 5 equal trials cost exactly 5× one trial.
	one := EQTest(rng, a, b, 1, 64, 1)
	if r.Bits != 5*one.Bits {
		t.Fatalf("bits = %d, want %d", r.Bits, 5*one.Bits)
	}
}

func TestTrialsForMonotone(t *testing.T) {
	if trialsFor(1024, 0.5) >= trialsFor(1024, 1e-6) {
		t.Fatal("smaller ε must require more trials")
	}
	if trialsFor(16, 0.1) < 1 {
		t.Fatal("trials must be >= 1")
	}
	// Degenerate ε values must not panic or return nonsense.
	if trialsFor(16, 0) < 1 || trialsFor(16, 2) < 1 {
		t.Fatal("degenerate ε mishandled")
	}
}

func TestTransferMovesSmallestMissing(t *testing.T) {
	a, b := tokenset.NewSet(128), tokenset.NewSet(128)
	a.Add(10)
	a.Add(50)
	b.Add(10)
	b.Add(99)
	c := newConn(7)
	out := Transfer(c, a, b, 0.001)
	if !out.Moved || out.Token != 50 || !out.ToResponder {
		t.Fatalf("outcome = %+v, want token 50 to responder", out)
	}
	if !b.Has(50) {
		t.Fatal("responder did not receive token 50")
	}
	if c.TokensUsed() != 1 {
		t.Fatalf("tokens charged = %d", c.TokensUsed())
	}
}

func TestTransferDirectionResponderToInitiator(t *testing.T) {
	a, b := tokenset.NewSet(128), tokenset.NewSet(128)
	b.Add(3)
	out := Transfer(newConn(8), a, b, 0.001)
	if !out.Moved || out.Token != 3 || out.ToResponder {
		t.Fatalf("outcome = %+v, want token 3 to initiator", out)
	}
	if !a.Has(3) {
		t.Fatal("initiator did not receive token 3")
	}
}

func TestTransferEqualSetsNoMove(t *testing.T) {
	a, b := tokenset.NewSet(64), tokenset.NewSet(64)
	for _, tok := range []int{2, 30, 64} {
		a.Add(tok)
		b.Add(tok)
	}
	out := Transfer(newConn(9), a, b, 0.001)
	if out.Moved {
		t.Fatalf("moved token %d between equal sets", out.Token)
	}
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatal("sets changed")
	}
}

func TestTransferReliabilityAndCorrectness(t *testing.T) {
	// Over many random unequal pairs, Transfer with ε = 0.01 must identify
	// the smallest symmetric-difference token almost always.
	rng := prand.New(10)
	const n = 256
	fails := 0
	runs := 300
	if testing.Short() {
		runs = 60 // keep the statistical check but shrink the sample in -short CI
	}
	for i := 0; i < runs; i++ {
		a, b := tokenset.NewSet(n), tokenset.NewSet(n)
		for j := 0; j < 20; j++ {
			tok := 1 + rng.Intn(n)
			a.Add(tok)
			if rng.Bool() {
				b.Add(tok)
			}
		}
		b.Add(1 + rng.Intn(n))
		want, ok := a.SmallestMissingFrom(b)
		if !ok {
			continue
		}
		out := Transfer(newConn(uint64(1000+i)), a, b, 0.01)
		if !out.Moved || out.Token != want {
			fails++
		}
	}
	if fails > runs/20 {
		t.Fatalf("Transfer failed %d/%d times with ε=0.01", fails, runs)
	}
}

func TestTransferBitComplexityScaling(t *testing.T) {
	// Bits per call must be O(log²N · log(logN/ε)): quadruple-check that
	// doubling N adds roughly (logN)·logfactor bits, not a multiplicative
	// blowup — i.e. bits(2N)/bits(N) stays well under 2 for large N.
	measure := func(n int) int {
		a, b := tokenset.NewSet(n), tokenset.NewSet(n)
		a.Add(n / 2)
		total := 0
		for i := 0; i < 20; i++ {
			out := Transfer(newConn(uint64(i)), a, b.Clone(), 0.01)
			total += out.Bits
		}
		return total / 20
	}
	b256, b4096 := measure(256), measure(4096)
	if b4096 <= b256 {
		t.Fatalf("bits did not grow with N: %d vs %d", b256, b4096)
	}
	// log²(4096)/log²(256) = (12/8)² = 2.25; allow slack to 4.
	if float64(b4096)/float64(b256) > 4 {
		t.Fatalf("bit growth %d→%d superpolylogarithmic", b256, b4096)
	}
}

func TestTransferChargesConn(t *testing.T) {
	a, b := tokenset.NewSet(64), tokenset.NewSet(64)
	a.Add(7)
	c := newConn(11)
	out := Transfer(c, a, b, 0.01)
	if c.BitsUsed() < out.Bits {
		t.Fatalf("conn charged %d bits < outcome bits %d", c.BitsUsed(), out.Bits)
	}
}

func TestTransferNeverInventsTokens(t *testing.T) {
	// Property: after Transfer, both sets are supersets of their originals
	// and the union is unchanged.
	f := func(seed uint64) bool {
		rng := prand.New(seed)
		const n = 97
		a, b := tokenset.NewSet(n), tokenset.NewSet(n)
		for j := 0; j < 15; j++ {
			if rng.Bool() {
				a.Add(1 + rng.Intn(n))
			}
			if rng.Bool() {
				b.Add(1 + rng.Intn(n))
			}
		}
		beforeA, beforeB := a.Clone(), b.Clone()
		Transfer(newConn(seed), a, b, 0.05)
		for tok := 1; tok <= n; tok++ {
			if beforeA.Has(tok) && !a.Has(tok) {
				return false // lost a token
			}
			if beforeB.Has(tok) && !b.Has(tok) {
				return false
			}
			had := beforeA.Has(tok) || beforeB.Has(tok)
			has := a.Has(tok) || b.Has(tok)
			if had != has {
				return false // invented or destroyed union member
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
