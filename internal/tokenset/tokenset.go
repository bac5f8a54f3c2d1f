// Package tokenset implements the token-set substrate of the paper: gossip
// tokens are labeled with ids in [1, N], every node maintains the set of
// tokens it has learned, and the analyses in §5 and §7 are phrased in terms
// of the potential function φ and the frequency multiset F(r) over these
// sets. Sets are dense bitsets so that the fingerprinting and
// symmetric-difference operations used by Transfer(ε) are cheap.
package tokenset

import (
	"fmt"
	"math/bits"
	"slices"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/modmath"
)

// Set is a set of token ids in [1, N]. The zero value of Set is not usable;
// construct with NewSet (or carve many sets out of one allocation with
// NewArena). Sets only grow: the model has no token loss.
//
// The universe bound N and the backing are separate things. Token t is
// always bit t%64 of word t/64, but a set carries only the words its
// constructor was told it can need: NewSet backs all of [1, N], an arena set
// backs [1, maxID]. An id in [1, N] past the backing behaves as any id past
// N does — Add drops it, Has denies it — and the binary operations that walk
// two sets word by word (RangeEqual, HashRangeEqual) expect both operands to
// come from one constructor call, as the sets of a run do.
//
// The set tracks the word range [minW, maxW] that holds its bits, so
// iteration and fingerprinting scan only the occupied span — on the paper's
// canonical workloads token ids cluster in [1, k] while the universe is n,
// making this the difference between O(k/64) and O(n/64) per scan.
type Set struct {
	words []uint64
	n     int // universe upper bound N
	count int
	minW  int // lowest nonzero word index (valid when count > 0)
	maxW  int // highest nonzero word index (valid when count > 0)
}

// setWords returns the word count backing a universe-n set.
func setWords(n int) int { return (n+64)/64 + 1 }

// NewSet returns an empty token set over the universe [1, n].
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, setWords(n)), n: n}
}

// Arena is a flat backing store for the per-node token sets of a whole
// simulation: one []uint64 allocation holds every node's bitset
// back-to-back, indexed by NodeID. This removes n separate set allocations
// and gives the round loop's per-node scans (advertise, Done) a single
// contiguous memory layout.
type Arena struct {
	words []uint64
	sets  []Set
}

// NewArena returns an arena of `nodes` empty sets over the universe [1, n],
// each backed for the ids [1, maxID] — the largest id any of them will ever
// be handed. A run's sets hold only the k assigned ids however large N is,
// so the arena costs nodes·(maxID/64 + 1) words, not nodes·N/64.
func NewArena(nodes, n, maxID int) *Arena {
	per := min(maxID, n)/64 + 1
	a := &Arena{words: make([]uint64, nodes*per), sets: make([]Set, nodes)}
	for i := range a.sets {
		a.sets[i] = Set{words: a.words[i*per : (i+1)*per : (i+1)*per], n: n}
	}
	return a
}

// Sets returns pointers to every arena set, indexed by NodeID.
func (a *Arena) Sets() []*Set {
	out := make([]*Set, len(a.sets))
	for i := range a.sets {
		out[i] = &a.sets[i]
	}
	return out
}

// Universe returns the universe bound N.
func (s *Set) Universe() int { return s.n }

// Add inserts token t. Tokens outside [1, N] or past the backing are
// rejected (no-op) so that a corrupted id cannot corrupt the bitset.
func (s *Set) Add(t int) {
	w, b := t/64, uint(t%64)
	if t < 1 || t > s.n || w >= len(s.words) {
		return
	}
	if s.words[w]&(1<<b) == 0 {
		if s.count == 0 {
			s.minW, s.maxW = w, w
		} else {
			if w < s.minW {
				s.minW = w
			}
			if w > s.maxW {
				s.maxW = w
			}
		}
		s.words[w] |= 1 << b
		s.count++
	}
}

// Has reports whether token t is in the set.
func (s *Set) Has(t int) bool {
	w := t / 64
	if t < 1 || t > s.n || w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<uint(t%64)) != 0
}

// Len returns the number of tokens in the set.
func (s *Set) Len() int { return s.count }

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count,
		minW: s.minW, maxW: s.maxW}
	copy(c.words, s.words)
	return c
}

// Equal reports whether two sets over the same universe hold the same
// tokens, whatever each is backed for.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n || s.count != o.count {
		return false
	}
	if s.count == 0 {
		return true
	}
	// Equal sets occupy the same word span, inside both backings.
	return s.minW == o.minW && s.maxW == o.maxW &&
		slices.Equal(s.words[s.minW:s.maxW+1], o.words[o.minW:o.maxW+1])
}

// hash returns a grouping key that equal sets share (Equal confirms a
// match): the token count folded with the occupied words and where they sit.
func (s *Set) hash() uint64 {
	h := uint64(s.count)
	if s.count == 0 {
		return h
	}
	h = h*0x9e3779b97f4a7c15 + uint64(s.minW)
	for _, w := range s.words[s.minW : s.maxW+1] {
		h = h*0x9e3779b97f4a7c15 + w
	}
	return h
}

// word returns word i of the set's layout, zero past the backing.
func (s *Set) word(i int) uint64 {
	if i < len(s.words) {
		return s.words[i]
	}
	return 0
}

// Tokens returns the tokens in increasing order.
func (s *Set) Tokens() []int {
	out := make([]int, 0, s.count)
	if s.count == 0 {
		return out
	}
	for wi := s.minW; wi <= s.maxW; wi++ {
		w := s.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls f for every token in increasing order without allocating.
func (s *Set) ForEach(f func(token int)) {
	if s.count == 0 {
		return
	}
	for wi := s.minW; wi <= s.maxW; wi++ {
		w := s.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

// ParityAnd returns |s ∩ P| mod 2 for the token set P given as a bit
// plane: plane[i] holds P's membership bits for word first+i of the
// universe, in the set's own layout (token t is bit t%64 of word t/64). The
// plane must cover the set's occupied word span. The SharedBit
// advertisement Σ_{t∈T_u} t.bit mod 2 is this with P = {t : t.bit = 1}: one
// AND per occupied word, one popcount in all.
func (s *Set) ParityAnd(plane []uint64, first int) uint64 {
	if s.count == 0 {
		return 0
	}
	var acc uint64
	mask := plane[s.minW-first : s.maxW-first+1]
	for i, w := range s.words[s.minW : s.maxW+1] {
		acc ^= w & mask[i]
	}
	return uint64(bits.OnesCount64(acc) & 1)
}

// CheckpointTo serializes the set's membership as a delta-encoded token
// list: O(|S|) varints rather than O(N/64) raw words, which keeps
// million-node checkpoints proportional to the tokens actually learned.
func (s *Set) CheckpointTo(w *ckpt.Writer) {
	w.U64(uint64(s.count))
	prev := 0
	s.ForEach(func(t int) {
		w.U64(uint64(t - prev))
		prev = t
	})
}

// RestoreFrom adds the tokens of a CheckpointTo stream into the set. The
// set need not be empty: sets only grow, so restoring a later snapshot over
// the run's initial assignment reproduces the checkpointed membership.
func (s *Set) RestoreFrom(r *ckpt.Reader) error {
	count := int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	t := 0
	for i := 0; i < count; i++ {
		t += int(r.U64())
		if t < 1 || t > s.n {
			if err := r.Err(); err != nil {
				return err
			}
			return fmt.Errorf("tokenset: checkpointed token %d outside [1, %d]", t, s.n)
		}
		if t/64 >= len(s.words) {
			return fmt.Errorf("tokenset: checkpointed token %d is past the ids [1, %d] this set is backed for",
				t, len(s.words)*64-1)
		}
		s.Add(t)
	}
	return r.Err()
}

// SmallestMissingFrom returns the smallest token that is in exactly one of
// s and o (the token Transfer(ε) identifies), and ok=false if the sets are
// equal. This is the "oracle" ground truth the randomized Transfer is tested
// against.
func (s *Set) SmallestMissingFrom(o *Set) (token int, ok bool) {
	for i := range max(len(s.words), len(o.words)) {
		if d := s.word(i) ^ o.word(i); d != 0 {
			return i*64 + bits.TrailingZeros64(d), true
		}
	}
	return 0, false
}

// CountRange returns |s ∩ [lo, hi]| for 1 <= lo <= hi <= N.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 1 {
		lo = 1
	}
	hi = min(hi, s.n, len(s.words)*64-1)
	if lo > hi {
		return 0
	}
	c := 0
	for t := lo; t <= hi; {
		w, b := t/64, uint(t%64)
		word := s.words[w] >> b
		span := 64 - int(b)
		if rem := hi - t + 1; rem < span {
			word &= (1 << uint(rem)) - 1
			span = rem
		}
		c += bits.OnesCount64(word)
		t += span
	}
	return c
}

// HashRange returns Σ_{t ∈ s ∩ [lo,hi]} 2^t mod q — the Rabin fingerprint of
// the restriction of the set to [lo, hi], used by EQTest. q must be > 1.
//
// The powers of two are computed incrementally — 2^(64·wi) is carried from
// word to word with one modular multiply, and each token adds
// 2^(64·wi)·2^b mod q — instead of a full powMod per token, and the scan is
// clipped to the set's occupied word span. Values are identical to the
// naive per-token powMod definition.
func (s *Set) HashRange(lo, hi int, q uint64) uint64 {
	if lo < 1 {
		lo = 1
	}
	if hi > s.n {
		hi = s.n
	}
	if s.count == 0 || hi < lo {
		return 0
	}
	wlo, whi := lo/64, hi/64
	if wlo < s.minW {
		wlo = s.minW
	}
	if whi > s.maxW {
		whi = s.maxW
	}
	if whi < wlo {
		return 0
	}
	pow64 := powMod(2, 64, q)
	base := powMod(2, uint64(wlo)*64, q) // 2^(64·wlo) mod q
	var sum uint64
	for wi := wlo; wi <= whi; wi++ {
		w := s.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			t := wi*64 + b
			if t < lo || t > hi {
				continue
			}
			sum = (sum + mulMod(base, (uint64(1)<<uint(b))%q, q)) % q
		}
		base = mulMod(base, pow64, q)
	}
	return sum
}

// diffSpan clips [lo, hi] to the universe and returns the word range
// [spanLo, spanHi] in which a∩[lo,hi] and b∩[lo,hi] can differ — the query's
// words wlo..whi clipped to the union of the two occupied spans, outside
// which both sets are zero — with the masks that trim words wlo and whi to
// the query. An empty span (spanHi < spanLo) means the restrictions are
// equal.
func diffSpan(a, b *Set, lo, hi int) (wlo, whi, spanLo, spanHi int, loMask, hiMask uint64) {
	if lo < 1 {
		lo = 1
	}
	if hi > a.n {
		hi = a.n
	}
	if hi < lo || (a.count == 0 && b.count == 0) {
		return 0, 0, 0, -1, 0, 0
	}
	wlo, whi = lo/64, hi/64
	minW, maxW := a.minW, a.maxW
	switch {
	case a.count == 0:
		minW, maxW = b.minW, b.maxW
	case b.count != 0:
		minW, maxW = min(minW, b.minW), max(maxW, b.maxW)
	}
	spanLo, spanHi = max(wlo, minW), min(whi, maxW)
	loMask = ^uint64(0) << uint(lo&63)
	hiMask = ^uint64(0) >> uint(63-hi&63)
	return wlo, whi, spanLo, spanHi, loMask, hiMask
}

// RangeEqual reports whether a∩[lo,hi] = b∩[lo,hi] exactly: one XOR per
// word of the span the two sets occupy, no modular arithmetic. EQTest asks
// it once per probe; when the answer is yes every fingerprint trial of the
// probe must agree whatever prime it draws, so none is computed.
func RangeEqual(a, b *Set, lo, hi int) bool {
	wlo, whi, spanLo, spanHi, loMask, hiMask := diffSpan(a, b, lo, hi)
	for wi := spanLo; wi <= spanHi; wi++ {
		d := a.words[wi] ^ b.words[wi]
		if wi == wlo {
			d &= loMask
		}
		if wi == whi {
			d &= hiMask
		}
		if d != 0 {
			return false
		}
	}
	return true
}

// HashRangeEqual reports whether a.HashRange(lo, hi, q) == b.HashRange(lo,
// hi, q) without computing either fingerprint: the contribution of tokens
// common to both sets cancels from the two sums, so only words of the
// symmetric difference need modular arithmetic — words where the sets agree
// are skipped with one XOR. The equality decision — including the
// fingerprint-collision probability — is identical to comparing the two
// HashRange values.
func HashRangeEqual(a, b *Set, lo, hi int, q uint64) bool {
	wlo, whi, spanLo, spanHi, loMask, hiMask := diffSpan(a, b, lo, hi)
	var sumA, sumB, base, pow64 uint64
	lastWi := -1 // word index `base` corresponds to; -1 = not yet computed
	for wi := spanLo; wi <= spanHi; wi++ {
		wa, wb := a.words[wi], b.words[wi]
		if wi == wlo {
			wa &= loMask
			wb &= loMask
		}
		if wi == whi {
			wa &= hiMask
			wb &= hiMask
		}
		d := wa ^ wb
		if d == 0 {
			continue
		}
		switch {
		case lastWi < 0:
			base = powMod(2, uint64(wi)*64, q)
		case wi == lastWi+1:
			if pow64 == 0 {
				pow64 = powMod(2, 64, q)
			}
			base = mulMod(base, pow64, q)
		default:
			base = mulMod(base, powMod(2, uint64(wi-lastWi)*64, q), q)
		}
		lastWi = wi
		for d != 0 {
			bit := bits.TrailingZeros64(d)
			d &= d - 1
			contrib := mulMod(base, (uint64(1)<<uint(bit))%q, q)
			if wa&(1<<uint(bit)) != 0 {
				sumA = (sumA + contrib) % q
			} else {
				sumB = (sumB + contrib) % q
			}
		}
	}
	return sumA == sumB
}

// powMod and mulMod are inlinable wrappers over the shared implementations
// in internal/modmath; the fingerprint arithmetic here and the primality
// testing in internal/eqtest must stay bit-identical.
func powMod(b, e, m uint64) uint64 { return modmath.PowMod(b, e, m) }
func mulMod(a, b, m uint64) uint64 { return modmath.MulMod(a, b, m) }
