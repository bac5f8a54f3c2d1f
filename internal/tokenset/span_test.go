package tokenset

// Span-backed ≡ universe-backed: an arena set backed only for [1, maxID]
// must be indistinguishable, through every method, from a NewSet(N) set fed
// the same ids — the reference kept here is NewSet itself, which still backs
// the whole universe — and an id in (backing, N] must be refused the way an
// id past N is, by name on the restore path.

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/prand"
)

func TestSpanBackedMatchesUniverseBacked(t *testing.T) {
	rng := prand.New(2117)
	for _, n := range []int{64, 65, 1000} {
		for _, maxID := range []int{0, 1, 63, 64, 65, n - 1, n} {
			arena := NewArena(2, n, maxID)
			span := [2]*Set{arena.Sets()[0], arena.Sets()[1]}
			ref := [2]*Set{NewSet(n), NewSet(n)}
			if got, want := len(arena.words), 2*(maxID/64+1); got != want {
				t.Fatalf("N=%d maxID=%d: arena holds %d words, want %d", n, maxID, got, want)
			}
			// Ids a run can hand a set (≤ maxID) and ids no set accepts.
			for i := 0; i < 3*maxID/2+8; i++ {
				id := []int{-1, 0, 1 + rng.Intn(maxID+1), n + 1, n + 70}[rng.Intn(5)]
				if id > maxID && id <= n {
					id = maxID
				}
				which := rng.Intn(2)
				span[which].Add(id)
				ref[which].Add(id)
			}
			for i := range span {
				s, r := span[i], ref[i]
				if s.Universe() != n || s.Len() != r.Len() || !slices.Equal(s.Tokens(), r.Tokens()) {
					t.Fatalf("N=%d maxID=%d set %d: holds %v over [1,%d], reference %v", n, maxID, i, s.Tokens(), s.Universe(), r.Tokens())
				}
				for id := -2; id <= n+70; id++ {
					if s.Has(id) != r.Has(id) {
						t.Fatalf("N=%d maxID=%d set %d: Has(%d) = %v, reference %v", n, maxID, i, id, s.Has(id), r.Has(id))
					}
				}
				for j := 0; j < 60; j++ {
					lo, hi := rng.Intn(n+6)-2, rng.Intn(n+6)-2
					if g, w := s.CountRange(lo, hi), r.CountRange(lo, hi); g != w {
						t.Fatalf("N=%d maxID=%d set %d: CountRange(%d,%d) = %d, reference %d", n, maxID, i, lo, hi, g, w)
					}
				}
				c := s.Clone()
				if !c.Equal(s) || !c.Equal(r) || !r.Equal(c) || len(c.words) != len(s.words) {
					t.Fatalf("N=%d maxID=%d set %d: clone differs from its source", n, maxID, i)
				}
				if maxID >= 1 && !s.Has(1) {
					if c.Add(1); c.Equal(s) || s.Has(1) {
						t.Fatalf("N=%d maxID=%d set %d: clone shares its source's words", n, maxID, i)
					}
				}
			}
			// Mixed-backing comparisons read the shorter set as zero-extended.
			wantTok, wantOK := ref[0].SmallestMissingFrom(ref[1])
			for _, pair := range [][2]*Set{{span[0], span[1]}, {span[0], ref[1]}, {ref[0], span[1]}} {
				if tok, ok := pair[0].SmallestMissingFrom(pair[1]); tok != wantTok || ok != wantOK {
					t.Fatalf("N=%d maxID=%d: SmallestMissingFrom = (%d,%v), reference (%d,%v)", n, maxID, tok, ok, wantTok, wantOK)
				}
				if pair[0].Equal(pair[1]) != !wantOK || pair[1].Equal(pair[0]) != !wantOK {
					t.Fatalf("N=%d maxID=%d: Equal disagrees with the reference", n, maxID)
				}
			}
			if span[0].hash() != ref[0].hash() {
				t.Fatalf("N=%d maxID=%d: equal sets of different backing hash apart", n, maxID)
			}
		}
	}
}

// TestPastBackingRefused: an id inside the universe but past the words a
// set carries is dropped by Add, denied by Has, and fails RestoreFrom with
// the backing error — never an index out of range, never a silent drop of a
// checkpointed token.
func TestPastBackingRefused(t *testing.T) {
	const n, maxID = 1000, 4
	stream := func(ids ...int) *ckpt.Reader {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		src := NewSet(n)
		for _, id := range ids {
			src.Add(id)
		}
		src.CheckpointTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return ckpt.NewReader(&buf)
	}
	for _, id := range []int{64, maxID + 64, n - 1, n} {
		s := NewArena(1, n, maxID).Sets()[0]
		s.Add(id)
		if s.Has(id) || s.Len() != 0 || s.CountRange(1, n) != 0 {
			t.Fatalf("id %d past the backing was stored", id)
		}
		err := s.RestoreFrom(stream(2, id))
		if err == nil || !strings.Contains(err.Error(), "backed for") {
			t.Fatalf("restoring id %d past the backing: err = %v, want the backing error", id, err)
		}
	}
	s := NewArena(1, n, maxID).Sets()[0]
	if err := s.RestoreFrom(stream(2, 63)); err != nil || !s.Has(63) {
		t.Fatalf("restoring ids inside the backing: err = %v", err)
	}
}
