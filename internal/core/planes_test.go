package core

// The advertisement planes against the definition they cache: a node's tag
// in round group g is the XOR over its tokens of the tokens' bundles in
// that group (§5.1). The per-token walk below is the code the planes
// replaced, kept as the reference.

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/tokenset"
)

// refAdvertise is Σ_{t∈set} t.bits (bitwise, mod 2) by a PRF walk over the
// set: TokenBit for b = 1, as SharedBit did, TokenBits otherwise.
func refAdvertise(shared *prand.SharedString, set *tokenset.Set, group, b int) uint64 {
	var tag uint64
	set.ForEach(func(t int) {
		if b == 1 {
			tag ^= uint64(shared.TokenBit(group, t))
		} else {
			tag ^= shared.TokenBits(group, t, b)
		}
	})
	return tag
}

// boundaryState builds a run whose token ids sit on the set layout's word
// boundaries (63, 64, 65, ..., N) plus random ones, and spreads them so
// that node 0 holds nothing, node 1 everything, and the rest random
// subsets — the states a run can reach, since Transfer only ever copies an
// assigned token.
func boundaryState(t *testing.T, n, universe int, rng *prand.RNG) *State {
	t.Helper()
	picked := tokenset.NewSet(universe)
	for _, id := range []int{1, 63, 64, 65, 127, 128, 129, universe - 1, universe} {
		picked.Add(id) // out-of-universe ids are dropped
	}
	for i := 0; i < universe/8; i++ {
		picked.Add(1 + rng.Intn(universe))
	}
	a := Assignment{Universe: universe, Tokens: picked.Tokens()}
	for range a.Tokens {
		a.Owners = append(a.Owners, 2+rng.Intn(n-2))
	}
	st := mustState(t, n, a)
	for u := 1; u < n; u++ {
		for _, tok := range a.Tokens {
			if u == 1 || rng.Intn(3) == 0 {
				st.sets[u].Add(tok)
			}
		}
	}
	return st
}

// nonMonotoneGroups revisits and skips groups: a plane must follow whatever
// group the call names, not a round counter.
var nonMonotoneGroups = []int{1, 2, 2, 1, 77, 3, 1 << 20, 5, 4, 4}

// checkpointInto snapshots src and restores it over dst, a State freshly
// built from the same assignment — what Resume does.
func checkpointInto(t *testing.T, src, dst *State) {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	src.CheckpointTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreFrom(ckpt.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneTagsMatchPerTokenDefinition(t *testing.T) {
	rng := prand.New(424242)
	for _, universe := range []int{12, 63, 64, 65, 128, 129, 1000} {
		const n = 12
		st := boundaryState(t, n, universe, rng)
		// A run resumed from a checkpoint: same assignment, sets restored.
		fresh := mustState(t, n, Assignment{Universe: universe, Tokens: st.tokens,
			Owners: make([]int, st.k)})
		checkpointInto(t, st, fresh)

		shared := prand.NewSharedString(rng.Uint64())
		for _, state := range []*State{st, fresh} {
			sb := NewSharedBit(state, shared)
			protos := map[int]mtm.Protocol{}
			for _, b := range []int{1, 2, 7, 64} {
				mb, err := NewMultiBit(state, shared, b)
				if err != nil {
					t.Fatal(err)
				}
				protos[b] = mb
			}
			// Nodes 3, 5 and 7 advertise 0, 1 and 0 to a scanning node 0.
			tags := make([]uint64, n)
			tags[5] = 1
			view := mtm.View{IDs: []int32{3, 5, 7}, Tags: tags}
			for _, g := range nonMonotoneGroups {
				for u := 0; u < n; u++ {
					want := refAdvertise(shared, state.sets[u], g, 1)
					if got := sb.Tag(g, u); got != want {
						t.Fatalf("universe %d SharedBit group %d node %d: tag %d, definition %d", universe, g, u, got, want)
					}
					ref := mtm.Listen()
					if want == 1 {
						ref = mtm.Propose([]int{3, 7}[shared.UniformIndex(g, 1, 2)])
					}
					tags[0] = want
					if got := sb.Decide(g, 0, view, nil); got != ref {
						t.Fatalf("universe %d SharedBit group %d node 0 advertising node %d's tag: decided %+v, definition %+v", universe, g, u, got, ref)
					}
					for b, mb := range protos {
						if got, want := mb.Tag(g, u), refAdvertise(shared, state.sets[u], g, b); got != want {
							t.Fatalf("universe %d MultiBit b=%d group %d node %d: tag %#x, definition %#x", universe, b, g, u, got, want)
						}
					}
				}
			}
		}
		if st.sets[0].Len() != 0 || st.sets[1].Len() != st.k {
			t.Fatal("the empty and the full set went untested")
		}
	}
}

// TestSimSharedBitPlaneTagsMatchDefinition steps a real run and checks
// every gossip round's tags against the walk over each node's own current
// string — many strings before the election converges, one after.
func TestSimSharedBitPlaneTagsMatchDefinition(t *testing.T) {
	const n, k = 48, 40 // ids 1..40 stay in word 0; the boundary ids are the case above
	st := mustState(t, n, OneTokenPerNode(n, k))
	space := prand.NewSeedSpace(n)
	p := NewSimSharedBit(st, space, SampleSeeds(space, n, prand.New(5)))
	eng := mtm.NewEngine(dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(6))), p,
		mtm.Config{Seed: 7, MaxRounds: 1 << 20})
	before, after := 0, 0
	for !eng.Finished() {
		if r := eng.Round() + 1; r%2 == 1 {
			if p.lead.Converged() {
				after++
			} else {
				before++
			}
			for u := 0; u < n; u++ {
				own := space.String(p.lead.Payload(u))
				if got, want := p.Tag(r, u), refAdvertise(own, st.sets[u], gossipGroup(r), 1); got != want {
					t.Fatalf("round %d node %d: tag %d, definition %d", r, u, got, want)
				}
			}
		}
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if before < 2 || after < 2 {
		t.Fatalf("checked %d gossip rounds before convergence and %d after; need both", before, after)
	}
}

// TestRestoreRejectsUnassignedToken: a checkpoint naming an id the run's
// assignment never placed fails by name, whether the id sits inside the
// words the sets are backed for (the stray-id check) or past them (the
// set's own backing check, which must come first: nothing may index or
// silently drop such an id).
func TestRestoreRejectsUnassignedToken(t *testing.T) {
	const universe = 1000
	placed := Assignment{Universe: universe, Tokens: []int{3, 7}, Owners: []int{0, 1}}
	for stray, wantErr := range map[int]string{
		9:        "never placed", // inside the backing
		7 + 64:   "backed for",   // first word past it
		universe: "backed for",   // the last id of the universe
	} {
		other := Assignment{Universe: universe, Tokens: []int{3, stray}, Owners: []int{0, 1}}
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		mustState(t, 4, other).CheckpointTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		err := mustState(t, 4, placed).RestoreFrom(ckpt.NewReader(&buf))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("checkpoint holding token %d restored into a run that never placed it: err = %v, want %q",
				stray, err, wantErr)
		}
	}
}

// TestShardedPlanesMatchSequential is the planes' concurrency contract:
// Tag is safe for concurrent callers naming the same round, and which call
// rebuilds a plane must not matter. Each round, one twin's tags are read by
// four goroutines over contiguous node shards at once and the other's
// sequentially; then both engines step and must agree. Run under -race
// (make race).
func TestShardedPlanesMatchSequential(t *testing.T) {
	const n, k, rounds, shards = 4096, 200, 12, 4
	build := map[string]func(st *State) mtm.Protocol{
		"sharedbit": func(st *State) mtm.Protocol { return NewSharedBit(st, prand.NewSharedString(11)) },
		"multibit": func(st *State) mtm.Protocol {
			p, err := NewMultiBit(st, prand.NewSharedString(12), 7)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"simsharedbit": func(st *State) mtm.Protocol {
			space := prand.NewSeedSpace(n)
			return NewSimSharedBit(st, space, SampleSeeds(space, n, prand.New(13)))
		},
	}
	g := graph.RandomRegular(n, 4, prand.New(14))
	for name, newProto := range build {
		var protos [2]mtm.Protocol
		var engs [2]*mtm.Engine
		for i := range protos {
			protos[i] = newProto(mustState(t, n, OneTokenPerNode(n, k)))
			engs[i] = mtm.NewEngine(dyngraph.NewStatic(g), protos[i], mtm.Config{Seed: 15, MaxRounds: 1 << 20})
		}
		seq, par := make([]uint64, n), make([]uint64, n)
		for r := 1; r <= rounds; r++ {
			for u := range seq {
				seq[u] = protos[0].Tag(r, u)
			}
			var wg sync.WaitGroup
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for u := lo; u < hi; u++ {
						par[u] = protos[1].Tag(r, u)
					}
				}(s*n/shards, (s+1)*n/shards)
			}
			wg.Wait()
			for u := range seq {
				if seq[u] != par[u] {
					t.Fatalf("%s round %d node %d: tag %d sequential, %d sharded", name, r, u, seq[u], par[u])
				}
			}
			a, err := engs[0].Step()
			if err != nil {
				t.Fatal(err)
			}
			b, err := engs[1].Step()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s round %d: stats %+v vs %+v", name, r, a, b)
			}
		}
	}
}
