package mobilegossip

// Tests for the facade-level extension features: multi-bit tags (TagBits)
// and ε-gossip via SimSharedBit (Corollary 7.5).

import (
	"errors"
	"testing"
)

func TestRunMultiBitTagLengths(t *testing.T) {
	for _, b := range []int{2, 4, 8} {
		res, err := Run(Config{
			Algorithm: AlgSharedBit, N: 24, K: 6,
			Topology: Topology{Kind: RandomRegular, Degree: 4},
			Tau:      1, TagBits: b, Seed: 3,
		})
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		if !res.Solved {
			t.Errorf("b=%d: unsolved after %d rounds", b, res.Rounds)
		}
	}
}

func TestRunTagBitsValidation(t *testing.T) {
	if _, err := Run(Config{
		Algorithm: AlgBlindMatch, N: 8, K: 2, TagBits: 2, Seed: 1,
	}); !errors.Is(err, ErrTagBitsRequires) {
		t.Errorf("TagBits with BlindMatch: got %v, want ErrTagBitsRequires", err)
	}
	if _, err := Run(Config{
		Algorithm: AlgSharedBit, N: 8, K: 2, TagBits: 65, Seed: 1,
	}); err == nil {
		t.Error("TagBits=65 should be rejected")
	}
	if _, err := Run(Config{
		Algorithm: AlgSharedBit, N: 8, K: 2, TagBits: -1, Seed: 1,
	}); err == nil {
		t.Error("TagBits=-1 should be rejected")
	}
	// 0 and 1 both mean the standard algorithm.
	for _, b := range []int{0, 1} {
		if _, err := Run(Config{
			Algorithm: AlgSharedBit, N: 8, K: 2, TagBits: b, Seed: 1,
		}); err != nil {
			t.Errorf("TagBits=%d: %v", b, err)
		}
	}
}

// TestRunTagBitsOneMatchesDefault: TagBits 0 and 1 must select the exact
// same execution.
func TestRunTagBitsOneMatchesDefault(t *testing.T) {
	base := Config{
		Algorithm: AlgSharedBit, N: 20, K: 5,
		Topology: Topology{Kind: RandomRegular, Degree: 4}, Tau: 1, Seed: 9,
	}
	withBit := base
	withBit.TagBits = 1
	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(withBit)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != r1 {
		t.Errorf("TagBits=1 diverged from default:\n  default: %+v\n  b=1:     %+v", r0, r1)
	}
}

func TestRunEpsilonViaSimSharedBit(t *testing.T) {
	full, err := Run(Config{
		Algorithm: AlgSimSharedBit, N: 24, K: 24,
		Topology: Topology{Kind: RandomRegular, Degree: 4}, Tau: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eps, err := Run(Config{
		Algorithm: AlgSimSharedBit, N: 24, K: 24,
		Topology: Topology{Kind: RandomRegular, Degree: 4}, Tau: 1, Seed: 5,
		Epsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Solved || !eps.Solved {
		t.Fatalf("runs unsolved: full=%v eps=%v", full.Solved, eps.Solved)
	}
	if eps.Rounds > full.Rounds {
		t.Errorf("ε-gossip (%d rounds) slower than full gossip (%d rounds)", eps.Rounds, full.Rounds)
	}
}

func TestRunEpsilonStillRejectsOtherAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgBlindMatch, AlgCrowdedBin} {
		_, err := Run(Config{
			Algorithm: alg, N: 8, K: 8, Epsilon: 0.5, Seed: 1,
		})
		if !errors.Is(err, ErrEpsilonRequires) {
			t.Errorf("%v with Epsilon: got %v, want ErrEpsilonRequires", alg, err)
		}
	}
}
