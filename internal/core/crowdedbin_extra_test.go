package core

// Additional CrowdedBin coverage: schedule/config edge cases beyond the
// basic solve tests in core_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
)

func runCrowdedBin(t *testing.T, n, k int, cfg CrowdedBinConfig, g *graph.Graph, seed uint64) mtm.Result {
	t.Helper()
	st := mustState(t, n, OneTokenPerNode(n, k))
	cb, err := NewCrowdedBin(st, cfg, prand.New(prand.Mix64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mtm.NewEngine(dyngraph.NewStatic(g), cb, mtm.Config{Seed: seed + 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("CrowdedBin unsolved after %d rounds (n=%d, k=%d, cfg=%+v)", res.Rounds, n, k, cfg)
	}
	if got := st.Potential(); got != 0 {
		t.Fatalf("final potential %d, want 0", got)
	}
	return res
}

func TestCrowdedBinRejectsOversizedTagWidth(t *testing.T) {
	// Beta*logN > 62 must be rejected up front: tags are spelled through a
	// uint64 accumulator.
	st := mustState(t, 1024, OneTokenPerNode(1024, 4))
	if _, err := NewCrowdedBin(st, CrowdedBinConfig{Beta: 7, Gamma: 2}, prand.New(1)); err == nil {
		t.Error("Beta=7 at N=1024 (70 tag bits) should be rejected")
	}
}

func TestCrowdedBinSolvesWithKEqualsN(t *testing.T) {
	const n = 12
	g := graph.RandomRegular(n, 4, prand.New(5))
	runCrowdedBin(t, n, n, CrowdedBinConfig{}, g, 31)
}

func TestCrowdedBinSolvesOnNonPowerOfTwoN(t *testing.T) {
	// The schedule math uses ⌈log₂⌉ sizes; N = 13 stresses the rounding.
	const n = 13
	g := graph.GNP(n, 0.5, prand.New(9))
	runCrowdedBin(t, n, 5, CrowdedBinConfig{}, g, 17)
}

func TestCrowdedBinSolvesWithSingleToken(t *testing.T) {
	// k = 1 reduces to rumor spreading through instance 1.
	const n = 16
	g := graph.Cycle(n)
	runCrowdedBin(t, n, 1, CrowdedBinConfig{}, g, 3)
}

func TestCrowdedBinLargerConstantsStillSolve(t *testing.T) {
	const n, k = 16, 4
	// Seed note: at N = 16 and β = 2 the tag space has only N^β = 256
	// values, so ≈ 2% of seeds produce a tag collision — the exact
	// "not good configuration" failure mode Lemma 6.5 bounds, which stalls
	// the run. Seed 8 draws collision-free tags for both configs.
	g := graph.RandomRegular(n, 4, prand.New(2))
	small := runCrowdedBin(t, n, k, CrowdedBinConfig{Beta: 2, Gamma: 2}, g, 8)
	big := runCrowdedBin(t, n, k, CrowdedBinConfig{Beta: 3, Gamma: 4}, g, 8)
	if big.Rounds <= small.Rounds {
		t.Errorf("larger schedule constants should cost more rounds: β=2,γ=2 → %d; β=3,γ=4 → %d",
			small.Rounds, big.Rounds)
	}
}

func TestCrowdedBinStaysWithinBudget(t *testing.T) {
	// The engine errors on budget violations; a clean completion plus the
	// metered totals proves CrowdedBin's advertising-heavy schedule still
	// respects the per-connection bounds.
	const n, k = 16, 4
	g := graph.RandomRegular(n, 4, prand.New(4))
	res := runCrowdedBin(t, n, k, CrowdedBinConfig{}, g, 23)
	if res.Connections == 0 || res.TokensMoved == 0 {
		t.Errorf("expected token movement through connections, got %+v", res)
	}
	if res.TokensMoved < int64(k*(n-1)) {
		// Every one of the k tokens must reach n−1 new nodes; CrowdedBin
		// moves tokens only via PPUSH connections, one per connection.
		t.Errorf("moved %d tokens; at least %d transfers required", res.TokensMoved, k*(n-1))
	}
}

// TestCrowdedBinDeterministicAcrossBackends: the engine's unprofiled and
// profiled round paths must produce the same run.
func TestCrowdedBinDeterministicAcrossBackends(t *testing.T) {
	const n, k = 16, 4
	run := func(prof *profile.Recorder) mtm.Result {
		st := mustState(t, n, OneTokenPerNode(n, k))
		cb, err := NewCrowdedBin(st, CrowdedBinConfig{}, prand.New(8))
		if err != nil {
			t.Fatal(err)
		}
		g := graph.RandomRegular(n, 4, prand.New(6))
		eng := mtm.NewEngine(dyngraph.NewStatic(g), cb, mtm.Config{Seed: 13})
		eng.SetProfiler(prof)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("unsolved after %d rounds (profiled=%v)", res.Rounds, prof != nil)
		}
		return res
	}
	if plain, prof := run(nil), run(profile.NewRecorder()); plain != prof {
		t.Errorf("backends diverged:\n  plain:    %+v\n  profiled: %+v", plain, prof)
	}
}

// TestCrowdedBinRestoreRejectsBadHear: node 0's spelled-bit accumulator list
// in an otherwise well-formed stream is longer than n, or its ids are not
// strictly ascending in [0, n); each is a named error, not a panic or a
// silently wrong state.
func TestCrowdedBinRestoreRejectsBadHear(t *testing.T) {
	const n = 8
	for name, hear := range map[string][]int64{
		"longer than n": {1 << 62},
		"descending":    {2, 5, 1, 3, 1},
		"repeated":      {2, 3, 1, 3, 1},
		"negative id":   {1, -1, 1},
		"id n":          {1, n, 1},
	} {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		w.Section("crowdedbin")
		w.Int(n)
		for i := 0; i < 5; i++ { // est, pending, activeInst, startSim, deferMerge
			w.Ints(make([]int, n))
		}
		w.Bools(make([]bool, n))
		writeTagMap(w, nil) // node 0's tags
		writeTagMap(w, nil) // and stash
		w.U64(uint64(hear[0]))
		for i := 1; i < len(hear); i += 2 {
			w.Int(int(hear[i]))
			w.U64(uint64(hear[i+1]))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		cb, err := NewCrowdedBin(mustState(t, n, OneTokenPerNode(n, 2)), CrowdedBinConfig{}, prand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := cb.RestoreFrom(ckpt.NewReader(&buf)); !errors.Is(err, ErrCheckpointHear) {
			t.Errorf("%s: RestoreFrom err = %v, want ErrCheckpointHear", name, err)
		}
	}
}

// TestQuietRoundsMatchFullRounds: an engine that skips CrowdedBin's quiet
// rounds must run the same trajectory as one that sees Quiet hidden behind
// a wrapper and so runs every round in full. After every round the two
// runs' RoundStats and checkpoint bytes (engine and protocol) must agree,
// and the counters Quiet reads must equal a recount of the arrays they
// count. Most rounds must be quiet, so the comparison is not vacuous.
// Checkpointing every round dominates the cost; -short keeps n ≤ 32 and
// one seed.
func TestQuietRoundsMatchFullRounds(t *testing.T) {
	ns, seeds := []int{16, 32, 64, 128}, uint64(3)
	if testing.Short() {
		ns, seeds = ns[:2], 1
	}
	var quiet, total atomic.Int64
	t.Run("runs", func(t *testing.T) {
		for _, n := range ns {
			for _, k := range []int{2, n / 4} {
				for seed := uint64(1); seed <= seeds; seed++ {
					for _, topo := range []string{"regular", "ring"} {
						t.Run(fmt.Sprintf("%s_n%d_k%d_seed%d", topo, n, k, seed), func(t *testing.T) {
							t.Parallel()
							g := graph.Cycle(n)
							if topo == "regular" {
								g = graph.RandomRegular(n, 4, prand.New(seed))
							}
							q, r := quietAgainstFull(t, g, k, seed)
							quiet.Add(q)
							total.Add(r)
						})
					}
				}
			}
		}
	})
	t.Logf("%d of %d rounds quiet", quiet.Load(), total.Load())
	if 2*quiet.Load() < total.Load() {
		t.Errorf("%d of %d rounds quiet, want at least half", quiet.Load(), total.Load())
	}
}

// quietAgainstFull runs CrowdedBin over g for up to 3,000 rounds with and
// without Quiet, comparing after every round, and returns how many of the
// rounds were quiet and how many ran.
func quietAgainstFull(t *testing.T, g *graph.Graph, k int, seed uint64) (quiet, rounds int64) {
	n := g.N()
	build := func(hideQuiet bool) (*CrowdedBin, *mtm.Engine) {
		cb, err := NewCrowdedBin(mustState(t, n, OneTokenPerNode(n, k)), CrowdedBinConfig{}, prand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var proto mtm.Protocol = cb
		if hideQuiet {
			proto = struct{ mtm.Protocol }{cb}
		}
		return cb, mtm.NewEngine(dyngraph.NewStatic(g), proto, mtm.Config{Seed: seed + 10, MaxRounds: 3000})
	}
	cb, eng := build(false)
	fullCB, full := build(true)
	for ; !eng.Finished(); rounds++ {
		if cb.Quiet(eng.Round() + 1) {
			quiet++
		}
		got, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round stats diverged:\n  quiet: %+v\n  full:  %+v", got, want)
		}
		if a, b := engineCheckpoint(t, eng, cb), engineCheckpoint(t, full, fullCB); !bytes.Equal(a, b) {
			t.Fatalf("checkpoints diverged after round %d", got.Round)
		}
		checkQuietCounters(t, cb)
	}
	if !full.Finished() {
		t.Fatal("the full run outlasted the quiet one")
	}
	return quiet, rounds
}

// engineCheckpoint returns the engine's and the protocol's checkpoint bytes.
func engineCheckpoint(t *testing.T, eng *mtm.Engine, cb *CrowdedBin) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	eng.CheckpointTo(w)
	cb.CheckpointTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkQuietCounters recounts activeCnt and deferCnt from the arrays.
func checkQuietCounters(t *testing.T, cb *CrowdedBin) {
	t.Helper()
	active, defers := make([]int, len(cb.activeCnt)), 0
	for u, inst := range cb.activeInst {
		active[inst]++
		if cb.deferMerge[u] >= 0 {
			defers++
		}
		if cb.deferPhase[u] {
			defers++
		}
	}
	if !slices.Equal(active, cb.activeCnt) || defers != cb.deferCnt {
		t.Fatalf("counters activeCnt %v deferCnt %d, recount %v and %d", cb.activeCnt, cb.deferCnt, active, defers)
	}
}

// TestCrowdedBinRestoreRejectsBadSchedule: a checkpoint whose estimate,
// pending upgrade or committed instance lies outside the run's instances is
// a named error, not a panic or a resumed wrong trajectory.
func TestCrowdedBinRestoreRejectsBadSchedule(t *testing.T) {
	const n = 8
	mk := func() *CrowdedBin {
		cb, err := NewCrowdedBin(mustState(t, n, OneTokenPerNode(n, 2)), CrowdedBinConfig{}, prand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return cb
	}
	logN := mk().logN
	for _, tc := range []struct {
		name string
		arr  func(*CrowdedBin) []int
		v    int
	}{
		{"est 0", func(p *CrowdedBin) []int { return p.est }, 0},
		{"est past logN", func(p *CrowdedBin) []int { return p.est }, logN + 1},
		{"pending negative", func(p *CrowdedBin) []int { return p.pending }, -1},
		{"pending past logN", func(p *CrowdedBin) []int { return p.pending }, logN + 1},
		{"activeInst negative", func(p *CrowdedBin) []int { return p.activeInst }, -1},
		{"activeInst past logN", func(p *CrowdedBin) []int { return p.activeInst }, logN + 1},
	} {
		src := mk()
		tc.arr(src)[n-1] = tc.v
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		src.CheckpointTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := mk().RestoreFrom(ckpt.NewReader(&buf)); !errors.Is(err, ErrCheckpointSchedule) {
			t.Errorf("%s: RestoreFrom err = %v, want ErrCheckpointSchedule", tc.name, err)
		}
	}
}
