package mobilegossip

// Tests for the facade-level extension features: multi-bit tags (TagBits),
// ε-gossip via SimSharedBit (Corollary 7.5), and execution tracing
// (NewTraceObserver).

import (
	"bufio"
	"bytes"
	"encoding/json"
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

func TestRunTraceWriterEmitsParsableEvents(t *testing.T) {
	var buf bytes.Buffer
	tracer := NewTraceObserver(&buf)
	res, err := Run(Config{
		Algorithm: AlgSharedBit, N: 16, K: 4,
		Topology: Topology{Kind: RandomRegular, Degree: 4}, Tau: 1, Seed: 2,
		Observers: []Observer{tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("unsolved")
	}

	var proposals, connects int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e struct {
			Round int    `json:"round"`
			Kind  string `json:"kind"`
			Node  int    `json:"node"`
			Peer  int    `json:"peer"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		switch e.Kind {
		case "propose":
			proposals++
		case "connect":
			connects++
		default:
			t.Fatalf("unknown kind %q", e.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if proposals != res.Proposals || connects != res.Connections {
		t.Errorf("trace counted %d/%d proposals/connects, result says %d/%d",
			proposals, connects, res.Proposals, res.Connections)
	}
}

// failWriter fails after the first write so the recorder records an error.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("trace sink failed")
	}
	return len(p), nil
}

func TestRunTraceWriterErrorSurfaces(t *testing.T) {
	tracer := NewTraceObserver(&failWriter{})
	res, err := Run(Config{
		Algorithm: AlgSharedBit, N: 16, K: 4,
		Topology: Topology{Kind: RandomRegular, Degree: 4}, Tau: 1, Seed: 2,
		Observers: []Observer{tracer},
	})
	if err != nil || !res.Solved {
		t.Fatalf("a dead trace sink must not stop the run: %+v, %v", res, err)
	}
	if tracer.Err() == nil {
		t.Fatal("expected the trace write failure to surface from Err")
	}
}

// TestRunTraceDoesNotPerturbExecution: tracing must be observation-only.
func TestRunTraceDoesNotPerturbExecution(t *testing.T) {
	cfg := Config{
		Algorithm: AlgSharedBit, N: 20, K: 5,
		Topology: Topology{Kind: RandomRegular, Degree: 4}, Tau: 1, Seed: 4,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observers = []Observer{NewTraceObserver(&bytes.Buffer{})}
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("tracing perturbed the run:\n  plain:  %+v\n  traced: %+v", plain, traced)
	}
}
