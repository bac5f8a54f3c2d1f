package graph

// Quick-checks for the one CSR path of the dynamic schedules: a graph filled
// by Patcher.Load from a sorted packed edge list must be element-for-element
// identical to the from-scratch Builder build of the same edge set, at no
// steady-state allocation, and a list that is not canonical must panic
// rather than corrupt the CSR.

import (
	"slices"
	"strings"
	"testing"

	"mobilegossip/internal/prand"
)

// edgeSet tracks the reference edge set as packed u<v pairs.
type edgeSet map[uint64]bool

// sorted returns the set as the canonical packed list Load consumes.
func (s edgeSet) sorted() []uint64 {
	out := make([]uint64, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

func buildFrom(n int, s edgeSet, name string) *Graph {
	b := NewBuilderCap(n, len(s))
	for e := range s {
		_ = b.AddEdge(int(e>>32), int(uint32(e)))
	}
	return b.Build(name)
}

// addRandom inserts up to tries random edges on n vertices into s.
func (s edgeSet) addRandom(rng *prand.RNG, n, tries int) {
	for i := 0; i < tries; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			s[PackEdge(int32(u), int32(v))] = true
		}
	}
}

// TestPatcherMatchesRebuild drives 30 rounds of random edge-set churn —
// from a light touch to a near-complete redraw — through one Patcher and
// requires every loaded CSR to equal the rebuilt CSR exactly, name included,
// for several sizes and seeds.
func TestPatcherMatchesRebuild(t *testing.T) {
	for _, n := range []int{2, 7, 40, 200} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := prand.New(prand.Mix64(seed ^ uint64(n)<<20))
			cur := edgeSet{}
			cur.addRandom(rng, n, n)
			p := NewPatcher(n)
			for round := 0; round < 30; round++ {
				keepOneIn := 1 + rng.Intn(5) // 1 = redraw everything
				for e := range cur {
					if rng.Intn(keepOneIn) == 0 {
						delete(cur, e)
					}
				}
				cur.addRandom(rng, n, n/2+1)
				got := p.Load(cur.sorted(), "loaded")
				want := buildFrom(n, cur, "loaded")
				if !got.EqualCSR(want) {
					t.Fatalf("n=%d seed=%d round=%d: loaded CSR diverged from rebuild", n, seed, round)
				}
				if got.Name() != want.Name() {
					t.Fatalf("loaded graph name = %q, want %q", got.Name(), want.Name())
				}
			}
		}
	}
}

// TestPatcherShapes covers the degenerate and extreme edge lists: a single
// vertex, no edges, isolated vertices between populated ones, a star (one
// long range), a clique (every range full).
func TestPatcherShapes(t *testing.T) {
	clique := edgeSet{}
	for u := int32(0); u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			clique[PackEdge(u, v)] = true
		}
	}
	star := edgeSet{}
	for v := int32(0); v < 12; v++ {
		if v != 5 {
			star[PackEdge(5, v)] = true
		}
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges edgeSet
	}{
		{"single vertex", 1, edgeSet{}},
		{"no edges", 6, edgeSet{}},
		{"isolated vertices", 10, edgeSet{PackEdge(1, 8): true, PackEdge(3, 8): true, PackEdge(3, 4): true}},
		{"star", 12, star},
		{"clique", 9, clique},
	} {
		p := NewPatcher(tc.n)
		// Twice, so both buffer pairs are exercised.
		for pass := 0; pass < 2; pass++ {
			got, want := p.Load(tc.edges.sorted(), tc.name), buildFrom(tc.n, tc.edges, tc.name)
			if !got.EqualCSR(want) || got.N() != tc.n || got.NumEdges() != len(tc.edges) {
				t.Errorf("%s pass %d: loaded CSR diverged from rebuild", tc.name, pass)
			}
		}
	}
}

// TestPatcherEmptyDelta: loading an unchanged edge list must reproduce the
// same topology in the other buffer pair, leaving the previous graph — which
// a caller may still hold for the round in progress — intact.
func TestPatcherEmptyDelta(t *testing.T) {
	rng := prand.New(11)
	g := RandomRegular(32, 4, rng)
	edges := g.AppendPackedEdges(nil)
	p := NewPatcher(32)
	first := p.Load(edges, g.Name())
	second := p.Load(edges, g.Name())
	if first == second {
		t.Fatal("consecutive loads share a buffer pair")
	}
	if !first.EqualCSR(g) || !second.EqualCSR(g) {
		t.Fatal("reloading an unchanged list changed the graph")
	}
}

// TestPatcherInconsistentDeltaPanics: a list that is not strictly ascending
// with u < v < n must panic, naming the entry, rather than corrupt the CSR —
// and CheckPacked, which the restore paths run first, must reject the same
// lists by error.
func TestPatcherInconsistentDeltaPanics(t *testing.T) {
	for name, edges := range map[string][]uint64{
		"unsorted":             {PackEdge(2, 3), PackEdge(0, 1)},
		"duplicated":           {PackEdge(0, 1), PackEdge(0, 1)},
		"self-loop":            {PackEdge(0, 1), uint64(3)<<32 | 3},
		"reversed orientation": {PackEdge(0, 1), uint64(5)<<32 | 2},
		"v out of range":       {PackEdge(0, 1), uint64(2)<<32 | 8},
		"u out of range":       {PackEdge(0, 1), uint64(1)<<63 | 5},
	} {
		if err := CheckPacked(edges, 8); err == nil || !strings.Contains(err.Error(), "entry 1") {
			t.Errorf("%s: CheckPacked = %v, want an error naming entry 1", name, err)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "entry 1") {
					t.Errorf("%s: Load recovered %q, want a panic naming entry 1", name, msg)
				}
			}()
			NewPatcher(8).Load(edges, "bad")
		}()
	}
	if err := CheckPacked([]uint64{PackEdge(0, 1), PackEdge(0, 7), PackEdge(6, 7)}, 8); err != nil {
		t.Errorf("canonical list rejected: %v", err)
	}
}

// TestPatcherLoadAllocs: once both buffer pairs have reached their
// high-water size a load allocates nothing, whatever the churn.
func TestPatcherLoadAllocs(t *testing.T) {
	const n = 500
	rng := prand.New(5)
	var lists [4][]uint64
	for i := range lists {
		s := edgeSet{}
		s.addRandom(rng, n, 4*n)
		lists[i] = s.sorted()
	}
	p := NewPatcher(n)
	for _, l := range lists { // warm-up: grow both pairs past every list
		p.Load(l, "warm")
		p.Load(l, "warm")
	}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		p.Load(lists[i%len(lists)], "steady")
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state Load allocates %v times per call", allocs)
	}
}

// TestEqualCSR sanity-checks the oracle relation itself.
func TestEqualCSR(t *testing.T) {
	a, b := Cycle(16), Cycle(16)
	if !a.EqualCSR(b) {
		t.Fatal("identical cycles compare unequal")
	}
	if a.EqualCSR(Path(16)) {
		t.Fatal("cycle equals path")
	}
	if a.EqualCSR(Cycle(17)) {
		t.Fatal("different sizes compare equal")
	}
}
