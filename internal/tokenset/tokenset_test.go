package tokenset

import (
	"testing"
	"testing/quick"

	"mobilegossip/internal/prand"
)

func TestAddHasLen(t *testing.T) {
	s := NewSet(100)
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(1)
	s.Add(100)
	s.Add(50)
	s.Add(50) // duplicate
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, tok := range []int{1, 50, 100} {
		if !s.Has(tok) {
			t.Errorf("missing token %d", tok)
		}
	}
	if s.Has(2) || s.Has(99) {
		t.Error("Has reports absent token")
	}
}

func TestAddOutOfRangeIgnored(t *testing.T) {
	s := NewSet(10)
	s.Add(0)
	s.Add(-5)
	s.Add(11)
	if s.Len() != 0 {
		t.Fatalf("out-of-range adds changed set: Len = %d", s.Len())
	}
	if s.Has(0) || s.Has(11) || s.Has(-1) {
		t.Fatal("Has true for out-of-range token")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := NewSet(64)
	s.Add(3)
	c := s.Clone()
	c.Add(4)
	if s.Has(4) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Has(3) || c.Len() != 2 {
		t.Fatal("Clone lost contents")
	}
}

func TestEqual(t *testing.T) {
	a, b := NewSet(128), NewSet(128)
	a.Add(5)
	a.Add(70)
	b.Add(70)
	b.Add(5)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Add(6)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
}

func TestTokensSorted(t *testing.T) {
	s := NewSet(200)
	for _, tok := range []int{190, 3, 64, 65, 127, 128, 1} {
		s.Add(tok)
	}
	got := s.Tokens()
	want := []int{1, 3, 64, 65, 127, 128, 190}
	if len(got) != len(want) {
		t.Fatalf("Tokens() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokens() = %v, want %v", got, want)
		}
	}
}

func TestSmallestMissingFrom(t *testing.T) {
	a, b := NewSet(100), NewSet(100)
	a.Add(10)
	a.Add(20)
	b.Add(10)
	tok, ok := a.SmallestMissingFrom(b)
	if !ok || tok != 20 {
		t.Fatalf("got (%d,%v), want (20,true)", tok, ok)
	}
	b.Add(5)
	tok, ok = a.SmallestMissingFrom(b)
	if !ok || tok != 5 {
		t.Fatalf("got (%d,%v), want (5,true)", tok, ok)
	}
	a.Add(5)
	a2 := b.Clone()
	a2.Add(20)
	if _, ok := a.SmallestMissingFrom(a2); ok {
		t.Fatal("equal sets reported a missing token")
	}
}

func TestCountRange(t *testing.T) {
	s := NewSet(300)
	for _, tok := range []int{1, 63, 64, 65, 128, 200, 300} {
		s.Add(tok)
	}
	cases := []struct{ lo, hi, want int }{
		{1, 300, 7}, {1, 1, 1}, {2, 62, 0}, {63, 65, 3},
		{64, 64, 1}, {129, 199, 0}, {200, 300, 2}, {301, 400, 0}, {-5, 0, 0},
	}
	for _, c := range cases {
		if got := s.CountRange(c.lo, c.hi); got != c.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestHashRangeEqualSetsAgree(t *testing.T) {
	a, b := NewSet(500), NewSet(500)
	for _, tok := range []int{2, 77, 400} {
		a.Add(tok)
		b.Add(tok)
	}
	const q = 1000003
	if a.HashRange(1, 500, q) != b.HashRange(1, 500, q) {
		t.Fatal("equal sets fingerprint differently")
	}
	if a.HashRange(1, 76, q) != b.HashRange(1, 76, q) {
		t.Fatal("equal restrictions fingerprint differently")
	}
}

func TestHashRangeDetectsDifference(t *testing.T) {
	a, b := NewSet(500), NewSet(500)
	a.Add(100)
	// For a random large prime, collision probability is tiny.
	const q = 2305843009213693951 // 2^61 - 1, prime
	if a.HashRange(1, 500, q) == b.HashRange(1, 500, q) {
		t.Fatal("different sets collided under a Mersenne prime")
	}
}

func TestHashRangeRestriction(t *testing.T) {
	a := NewSet(500)
	a.Add(100)
	a.Add(400)
	const q = 1000003
	if a.HashRange(1, 200, q) != powMod(2, 100, q) {
		t.Fatal("restricted fingerprint wrong")
	}
}

func TestPowMulMod(t *testing.T) {
	cases := []struct{ b, e, m, want uint64 }{
		{2, 10, 1000003, 1024},
		{2, 0, 97, 1},
		{5, 3, 7, 6},
		{2, 64, 1000003, 0}, // computed below
	}
	cases[3].want = func() uint64 {
		v := uint64(1)
		for i := 0; i < 64; i++ {
			v = v * 2 % 1000003
		}
		return v
	}()
	for _, c := range cases {
		if got := powMod(c.b, c.e, c.m); got != c.want {
			t.Errorf("powMod(%d,%d,%d) = %d, want %d", c.b, c.e, c.m, got, c.want)
		}
	}
	// mulMod against big values: (2^62)*(2^62) mod (2^61-1).
	const m = uint64(2305843009213693951)
	got := mulMod(1<<62, 1<<62, m)
	// 2^62 mod m = 2; so result must be 4.
	if got != 4 {
		t.Errorf("mulMod(2^62,2^62,2^61-1) = %d, want 4", got)
	}
}

func TestPotential(t *testing.T) {
	sets := []*Set{NewSet(10), NewSet(10), NewSet(10)}
	sets[0].Add(1)
	sets[0].Add(2)
	sets[1].Add(1)
	// k=2: φ = (2-2)+(2-1)+(2-0) = 3
	if got := Potential(sets, 2); got != 3 {
		t.Fatalf("Potential = %d, want 3", got)
	}
	if AllKnowAll(sets, 2) {
		t.Fatal("AllKnowAll true prematurely")
	}
	sets[1].Add(2)
	sets[2].Add(1)
	sets[2].Add(2)
	if !AllKnowAll(sets, 2) {
		t.Fatal("AllKnowAll false after completion")
	}
	if got := Potential(sets, 2); got != 0 {
		t.Fatalf("Potential = %d, want 0", got)
	}
}

func TestEpsilonSolvedFullGossip(t *testing.T) {
	n := 8
	sets := make([]*Set, n)
	own := make([]int, n)
	for i := range sets {
		sets[i] = NewSet(n)
		own[i] = i + 1
		for tok := 1; tok <= n; tok++ {
			sets[i].Add(tok)
		}
	}
	if !EpsilonSolved(sets, own, 0.99) {
		t.Fatal("full gossip must solve ε-gossip for any ε")
	}
}

func TestEpsilonSolvedPartial(t *testing.T) {
	// Nodes 1..6 of 8 mutually know tokens 1..6; nodes 7,8 know only their own.
	n := 8
	sets := make([]*Set, n)
	own := make([]int, n)
	for i := range sets {
		sets[i] = NewSet(n)
		own[i] = i + 1
		sets[i].Add(i + 1)
	}
	for i := 0; i < 6; i++ {
		for tok := 1; tok <= 6; tok++ {
			sets[i].Add(tok)
		}
	}
	if !EpsilonSolved(sets, own, 0.75) { // ⌈0.75·8⌉ = 6
		t.Fatal("ε=0.75 should be solved by the 6-node coalition")
	}
	if EpsilonSolved(sets, own, 0.9) { // needs 8 mutual nodes
		t.Fatal("ε=0.9 must not be solved")
	}
}

func TestEpsilonSolvedStart(t *testing.T) {
	// At start (everyone knows only its own token) ε-gossip is unsolved for
	// any εn ≥ 2.
	n := 10
	sets := make([]*Set, n)
	own := make([]int, n)
	for i := range sets {
		sets[i] = NewSet(n)
		own[i] = i + 1
		sets[i].Add(i + 1)
	}
	if EpsilonSolved(sets, own, 0.2) {
		t.Fatal("start state cannot solve ε-gossip with εn=2")
	}
}

func TestSetQuickProperties(t *testing.T) {
	// Property: for random add sequences, Len equals the number of distinct
	// in-range ids, Tokens is sorted, and SmallestMissingFrom(a,b) agrees
	// with a direct scan.
	f := func(seed uint64) bool {
		rng := prand.New(seed)
		const n = 97
		a, b := NewSet(n), NewSet(n)
		ref := map[int]bool{}
		for i := 0; i < 60; i++ {
			tok := rng.Intn(n+4) - 2 // includes out-of-range
			a.Add(tok)
			if tok >= 1 && tok <= n {
				ref[tok] = true
			}
			if rng.Bool() {
				b.Add(tok)
			}
		}
		if a.Len() != len(ref) {
			return false
		}
		prev := 0
		for _, tok := range a.Tokens() {
			if tok <= prev || !ref[tok] {
				return false
			}
			prev = tok
		}
		// Oracle symmetric difference check.
		want, wantOK := 0, false
		for tok := 1; tok <= n; tok++ {
			if a.Has(tok) != b.Has(tok) {
				want, wantOK = tok, true
				break
			}
		}
		got, gotOK := a.SmallestMissingFrom(b)
		return got == want && gotOK == wantOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
