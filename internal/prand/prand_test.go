package prand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical words", same)
	}
}

func TestSeedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after re-Seed, step %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d: count %d deviates too far from %f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(9)
	trues := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < trials/2-1000 || trues > trials/2+1000 {
		t.Fatalf("Bool heavily biased: %d/%d true", trues, trials)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMix64Injectivity(t *testing.T) {
	// SplitMix64's finalizer is a bijection; sample-check for collisions.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestSharedStringTokenBitDeterministic(t *testing.T) {
	s1, s2 := NewSharedString(99), NewSharedString(99)
	for g := 0; g < 20; g++ {
		for tok := 1; tok <= 20; tok++ {
			if s1.TokenBit(g, tok) != s2.TokenBit(g, tok) {
				t.Fatalf("TokenBit(%d,%d) not deterministic", g, tok)
			}
		}
	}
}

func TestSharedStringTokenBitBalanced(t *testing.T) {
	s := NewSharedString(1234)
	ones := 0
	const trials = 50000
	for g := 0; g < trials/50; g++ {
		for tok := 1; tok <= 50; tok++ {
			ones += s.TokenBit(g, tok)
		}
	}
	if ones < trials/2-1500 || ones > trials/2+1500 {
		t.Fatalf("TokenBit biased: %d/%d ones", ones, trials)
	}
}

func TestSharedStringBitsIndependentAcrossGroups(t *testing.T) {
	// The same token must get a fresh bit each group (round): adjacent
	// groups should agree about half the time.
	s := NewSharedString(7)
	agree := 0
	const trials = 20000
	for g := 0; g < trials; g++ {
		if s.TokenBit(g, 5) == s.TokenBit(g+1, 5) {
			agree++
		}
	}
	if agree < trials/2-1000 || agree > trials/2+1000 {
		t.Fatalf("adjacent-group bits correlated: %d/%d agreement", agree, trials)
	}
}

func TestUniformIndexRange(t *testing.T) {
	s := NewSharedString(21)
	for _, n := range []int{1, 2, 3, 5, 17, 100} {
		for g := 0; g < 100; g++ {
			v := s.UniformIndex(g, g%7, n)
			if v < 0 || v >= n {
				t.Fatalf("UniformIndex(n=%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUniformIndexUniform(t *testing.T) {
	s := NewSharedString(8)
	const n, trials = 7, 70000
	counts := make([]int, n)
	for g := 0; g < trials; g++ {
		counts[s.UniformIndex(g, 3, n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d: count %d vs expected %f", v, c, want)
		}
	}
}

func TestSeedSpaceSize(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{2, 8}, {10, 1000}, {100, 1000000}, {1, 8},
	}
	for _, c := range cases {
		if got := NewSeedSpace(c.n).Size(); got != c.want {
			t.Errorf("NewSeedSpace(%d).Size() = %d, want %d", c.n, got, c.want)
		}
	}
	// Huge N must not overflow.
	if got := NewSeedSpace(1 << 30).Size(); got != 1<<62 {
		t.Errorf("overflow guard: got %d", got)
	}
}

func TestSeedSpaceSampleInRange(t *testing.T) {
	ss := NewSeedSpace(10)
	rng := New(77)
	for i := 0; i < 10000; i++ {
		if v := ss.Sample(rng); v >= ss.Size() {
			t.Fatalf("Sample() = %d >= size %d", v, ss.Size())
		}
	}
}

func TestSeedSpaceSeedBits(t *testing.T) {
	ss := NewSeedSpace(10) // size 1000 -> 10 bits
	if got := ss.SeedBits(); got != 10 {
		t.Errorf("SeedBits() = %d, want 10", got)
	}
}

func TestSeedSpaceStringsDiffer(t *testing.T) {
	ss := NewSeedSpace(100)
	a, b := ss.String(1), ss.String(2)
	same := 0
	for g := 0; g < 64; g++ {
		if a.TokenBit(g, 1) == b.TokenBit(g, 1) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("adjacent R' seeds yield identical bit streams")
	}
}

func TestPermProperty(t *testing.T) {
	// Property: sum of Perm(n) equals n(n-1)/2 for all n.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFisherYatesMatchesIntnLoop pins the fused index draw to the loop it
// replaces, js[i] = Intn(i+1) from the top down, on every index and on the
// generator state left behind, for every length up to 4,096. Every other
// case starts from s[1] = 0, whose first output is 0 (see
// TestIntnMemberMatchesIntnLoop): below the Lemire threshold whenever the
// top index's range is not a power of two, so the redraw path runs too.
func TestFisherYatesMatchesIntnLoop(t *testing.T) {
	seeds := New(20261017)
	for n := 0; n <= 4096; n++ {
		for c := 0; c < 2; c++ {
			state := [4]uint64{seeds.Uint64(), seeds.Uint64(), seeds.Uint64(), seeds.Uint64()}
			if c == 1 {
				state[1] = 0
			}
			var fused, loop RNG
			fused.SetState(state)
			loop.SetState(state)
			got, want := make([]int32, n), make([]int32, n)
			if n > 0 {
				got[0], want[0] = -1, -1 // js[0] is never written
			}
			fused.FisherYates(got)
			for i := n - 1; i > 0; i-- {
				want[i] = int32(loop.Intn(i + 1))
			}
			if !slices.Equal(got, want) || fused.State() != loop.State() {
				t.Fatalf("len %d, case %d: indices equal: %v; states equal: %v",
					n, c, slices.Equal(got, want), fused.State() == loop.State())
			}
		}
	}
}

// memberLoop is the reference IntnMember is pinned to: count times, draw
// off + Intn(n) until the bitmap has the value; the last member drawn.
func memberLoop(r *RNG, n, off int, bitmap []uint64, count int) int {
	q := -1
	for count > 0 {
		q = off + r.Intn(n)
		if bitmap[q/64]>>(q%64)&1 == 1 {
			count--
		}
	}
	return q
}

// TestIntnMemberMatchesIntnLoop pins the counted, fused rejection loop to
// the loop it replaced — off + Intn(n) until the bitmap has the value, run
// count times — on the value returned and on the generator state left
// behind. Lemire's own redraw fires about n times in 2⁶⁴ draws, and a
// bitmap over a range wide enough to make that likely cannot be allocated,
// so half the cases start from a crafted state instead: xoshiro's output is
// a function of s[1] alone and s[1] = 0 outputs 0, which lands below the
// threshold of every n that is not a power of two.
func TestIntnMemberMatchesIntnLoop(t *testing.T) {
	seeds := New(20240229)
	for _, n := range []int{1, 2, 3, 4606, 1279998} {
		for _, off := range []int{0, 3, 64, 1000} {
			words := (off+n)/64 + 1
			dense, sparse, single := make([]uint64, words), make([]uint64, words), make([]uint64, words)
			for q := off; q < off+n; q++ {
				dense[q/64] |= 1 << (q % 64)
				if q%97 == 0 || q == off+n-1 {
					sparse[q/64] |= 1 << (q % 64)
				}
			}
			last := off + n - 1
			single[last/64] |= 1 << (last % 64)
			for bi, bitmap := range [][]uint64{dense, sparse, single} {
				if bi == 2 && n > 5000 {
					continue // one member in 10⁶: the reference loop is too slow to be worth it
				}
				for i := 0; i < 40; i++ {
					state := [4]uint64{seeds.Uint64(), seeds.Uint64(), seeds.Uint64(), seeds.Uint64()}
					if i%2 == 1 {
						state[1] = 0
					}
					if i%2 == 1 && n&(n-1) != 0 {
						var intn, one RNG
						intn.SetState(state)
						one.SetState(state)
						intn.Intn(n)
						one.Uint64()
						if intn.State() == one.State() {
							t.Fatalf("n=%d: crafted state did not force a Lemire redraw", n)
						}
					}
					for _, count := range []int{1, 2, 7, 44} {
						var fused, loop RNG
						fused.SetState(state)
						loop.SetState(state)
						want := memberLoop(&loop, n, off, bitmap, count)
						if got := fused.IntnMember(n, off, bitmap, count); got != want || fused.State() != loop.State() {
							t.Fatalf("IntnMember(%d, %d, count %d) bitmap %d = %d, loop gives %d; states equal: %v",
								n, off, count, bi, got, want, fused.State() == loop.State())
						}
					}
				}
			}
		}
	}
}

func TestIntnMemberPanicsOnNonPositive(t *testing.T) {
	for _, c := range []struct{ n, count int }{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntnMember(%d, 0, ..., %d) did not panic", c.n, c.count)
				}
			}()
			New(1).IntnMember(c.n, 0, []uint64{1}, c.count)
		}()
	}
}

// FuzzIntnMember checks the counted draw against memberLoop from arbitrary
// states, ranges, offsets and counts. The bitmap marks every stride-th
// value of [off, off+n) and the last, so every input has a member.
func FuzzIntnMember(f *testing.F) {
	f.Add(uint64(1), uint16(1279), uint16(3), uint8(44), uint8(13), false)
	f.Add(uint64(7), uint16(3), uint16(0), uint8(1), uint8(1), true)
	f.Add(uint64(42), uint16(4606), uint16(64), uint8(7), uint8(97), true)
	f.Fuzz(func(t *testing.T, seed uint64, n16, off16 uint16, count8, stride8 uint8, zeroS1 bool) {
		n, off := int(n16)+1, int(off16)
		count, stride := int(count8%64)+1, int(stride8)+1
		bitmap := make([]uint64, (off+n)/64+1)
		for q := off; q < off+n; q += stride {
			bitmap[q/64] |= 1 << (q % 64)
		}
		bitmap[(off+n-1)/64] |= 1 << ((off + n - 1) % 64)
		state := New(seed).State()
		if zeroS1 {
			state[1] = 0 // xoshiro then outputs 0: a Lemire redraw for every n not a power of two
		}
		var fused, loop RNG
		fused.SetState(state)
		loop.SetState(state)
		want := memberLoop(&loop, n, off, bitmap, count)
		if got := fused.IntnMember(n, off, bitmap, count); got != want || fused.State() != loop.State() {
			t.Fatalf("IntnMember(%d, %d, count %d) stride %d = %d, loop gives %d; states equal: %v",
				n, off, count, stride, got, want, fused.State() == loop.State())
		}
	})
}
