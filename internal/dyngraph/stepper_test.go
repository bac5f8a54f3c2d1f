package dyngraph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mobilegossip/internal/graph"
)

// fakeSource is an edge source whose epoch-e list is a pure function of e:
// one edge (u, u+1+(e/2+u)%3) per vertex where it fits — sorted, canonical,
// usually disconnected (so the Stepper's repair runs), and equal for epochs
// 2i and 2i+1 (so some epoch boundaries carry no change). It records what
// the Stepper asked of it, and fails the test when an emit does not follow
// the advance into the same epoch or an advance skips one.
type fakeSource struct {
	t        *testing.T
	n        int
	at       int   // the epoch the source was last advanced into; -1 = rewound
	advanced []int // epochs advance was called for, in order
	emitted  []int // epochs emit was called for, in order
	rewinds  int
}

func newFakeSource(t *testing.T, n int) *fakeSource { return &fakeSource{t: t, n: n, at: -1} }

func (f *fakeSource) list(e int) []uint64 {
	var out []uint64
	for u := 0; u < f.n; u++ {
		if v := u + 1 + (e/2+u)%3; v < f.n {
			out = append(out, graph.PackEdge(int32(u), int32(v)))
		}
	}
	return out
}

func (f *fakeSource) advance(e int) {
	if e != f.at+1 {
		f.t.Errorf("advance(%d) from epoch %d", e, f.at)
	}
	f.at = e
	f.advanced = append(f.advanced, e)
}

func (f *fakeSource) emit(e int, buf []uint64) []uint64 {
	if e != f.at {
		f.t.Errorf("emit(%d) while advanced into epoch %d", e, f.at)
	}
	f.emitted = append(f.emitted, e)
	return append(buf, f.list(e)...)
}

func (f *fakeSource) rewind() { f.rewinds++; f.at = -1 }

func (f *fakeSource) forget() { f.advanced, f.emitted = nil, nil }

func (f *fakeSource) stepper(tau int, rebuild bool) *Stepper {
	return NewStepper(f.n, tau, "fake", rebuild, f.rewind, f.advance, f.emit)
}

// want is the independent expectation for epoch e: the source's list,
// repaired by a Connector of the test's own.
func (f *fakeSource) want(e int) []uint64 {
	return slices.Clone(graph.NewConnector(f.n).Connect(f.list(e)))
}

// diffPairs is the set difference of two sorted packed lists as (u, v) pair
// lists — the body graph.DiffPacked had while deltas were applied, kept as
// the oracle its counts are checked against.
func diffPairs(prev, next []uint64) (added, removed [][2]int32) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			removed = append(removed, unpackEdge(prev[i]))
			i++
		default:
			added = append(added, unpackEdge(next[j]))
			j++
		}
	}
	for ; i < len(prev); i++ {
		removed = append(removed, unpackEdge(prev[i]))
	}
	for ; j < len(next); j++ {
		added = append(added, unpackEdge(next[j]))
	}
	return added, removed
}

func ascending(from, to int) []int {
	var s []int
	for e := max(from, 0); e <= to; e++ {
		s = append(s, e)
	}
	return s
}

// wantDelta is the oracle's delta entering round r: the set difference of
// the two epochs' repaired lists at the first round of a later epoch, zero
// anywhere else.
func (f *fakeSource) wantDelta(r, tau int) Delta {
	e := epochOf(r, tau)
	if e == 0 || r != firstRound(e, tau) {
		return Delta{}
	}
	added, removed := diffPairs(f.want(e-1), f.want(e))
	return Delta{Added: len(added), Removed: len(removed)}
}

var stepperTaus = []struct {
	name string
	tau  int // as passed to NewStepper
	eff  int // as Stability reports it
}{{"τ=1", 1, 1}, {"τ=3", 3, 3}, {"τ=∞", 0, Infinite}}

// TestStepperAscendingQueries: epochs are advanced and emitted once each and
// in order, every round's graph is the repaired list of its epoch under the
// name <label>@e<epoch>, Load and the Rebuild oracle agree, and DeltaFor —
// asked zero, one or three times a round — is the oracle's set difference at
// the first round of an epoch and zero elsewhere.
func TestStepperAscendingQueries(t *testing.T) {
	const n, rounds = 14, 20
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			src, osrc := newFakeSource(t, n), newFakeSource(t, n)
			s, oracle := src.stepper(tc.tau, false), osrc.stepper(tc.tau, true)
			if s.Stability() != tc.eff || s.N() != n || s.TauString() != tc.name {
				t.Fatalf("Stability %d, N %d, TauString %q", s.Stability(), s.N(), s.TauString())
			}
			if s.Epoch() != -1 || len(s.Edges()) != 0 || len(src.advanced)+len(src.emitted) != 0 {
				t.Fatalf("a new Stepper already produced: epoch %d, advanced %v, emitted %v", s.Epoch(), src.advanced, src.emitted)
			}
			for r := 1; r <= rounds; r++ {
				e := epochOf(r, tc.eff)
				g := s.At(r)
				if s.Epoch() != e || g.Name() != fmt.Sprintf("fake@e%d", e) {
					t.Fatalf("round %d: epoch %d, graph %q, want epoch %d", r, s.Epoch(), g.Name(), e)
				}
				want := src.want(e)
				if !slices.Equal(s.Edges(), want) || !g.EqualCSR(graph.BuildPacked(n, want, "")) || !g.Connected() {
					t.Fatalf("round %d: graph is not the repaired list of epoch %d", r, e)
				}
				if og := oracle.At(r); !g.EqualCSR(og) || g.Name() != og.Name() {
					t.Fatalf("round %d: loaded CSR %q != rebuilt CSR %q", r, g.Name(), og.Name())
				}
				// The count is taken when asked for: not asking, asking once
				// and asking again must all read the same.
				for i := 0; i < []int{0, 1, 3}[(r+r/3)%3]; i++ {
					if d, want := s.DeltaFor(r), src.wantDelta(r, tc.eff); d != want {
						t.Fatalf("round %d, call %d: DeltaFor = %+v, set difference = %+v", r, i+1, d, want)
					}
				}
			}
			if want := ascending(0, epochOf(rounds, tc.eff)); !slices.Equal(src.advanced, want) || !slices.Equal(src.emitted, want) || src.rewinds != 0 {
				t.Fatalf("advanced %v, emitted %v (rewinds %d), want %v once each", src.advanced, src.emitted, src.rewinds, want)
			}
		})
	}
}

// TestStepperJumps: a query more than one epoch ahead — from a new Stepper,
// from the middle of a run, after a rewind — advances the source through
// every epoch in between but emits only the last two, and lands on the
// graph, name, list and delta that walking every round gives.
func TestStepperJumps(t *testing.T) {
	const n = 14
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			wsrc := newFakeSource(t, n)
			walk := wsrc.stepper(tc.tau, false)
			from := -1
			src := newFakeSource(t, n)
			s := src.stepper(tc.tau, false)
			for _, r := range []int{11, 12, 31, 40} {
				for w := 1; w <= r; w++ {
					walk.At(w)
				}
				src.forget()
				g, e := s.At(r), epochOf(r, tc.eff)
				if !slices.Equal(src.advanced, ascending(from+1, e)) || !slices.Equal(src.emitted, ascending(max(from+1, e-1), e)) || src.rewinds != 0 {
					t.Fatalf("jump from epoch %d to %d: advanced %v, emitted %v, rewinds %d", from, e, src.advanced, src.emitted, src.rewinds)
				}
				if g.Name() != walk.At(r).Name() || !g.EqualCSR(walk.At(r)) || !slices.Equal(s.Edges(), walk.Edges()) {
					t.Fatalf("round %d: jumped to %q, walked to %q", r, g.Name(), walk.At(r).Name())
				}
				if d, want := s.DeltaFor(r), walk.DeltaFor(r); d != want || want != wsrc.wantDelta(r, tc.eff) {
					t.Fatalf("round %d: DeltaFor %+v after a jump, %+v after a walk, oracle %+v", r, d, want, wsrc.wantDelta(r, tc.eff))
				}
				from = e
			}
		})
	}
}

// TestStepperBackwardQueryReplays: a query behind the current epoch rewinds
// the source once and jumps from before epoch 0 to identical lists, names
// and deltas; rounds ≤ 0 are round 1.
func TestStepperBackwardQueryReplays(t *testing.T) {
	const n, far, back = 14, 17, 5
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			src := newFakeSource(t, n)
			s := src.stepper(tc.tau, false)
			if g := s.At(0); g.Name() != "fake@e0" || s.At(-5) != g || s.At(1) != g {
				t.Fatalf("At(r ≤ 0) = %q, not round 1's graph", g.Name())
			}
			lists, names := map[int][]uint64{}, map[int]string{}
			for r := 1; r <= far; r++ {
				names[r] = s.At(r).Name()
				lists[r] = slices.Clone(s.Edges())
			}
			src.forget()
			g := s.At(back)
			if tc.eff == Infinite { // one epoch: nothing is ever behind
				if src.rewinds != 0 || len(src.advanced)+len(src.emitted) != 0 {
					t.Fatalf("frozen schedule replayed: rewinds %d, advanced %v, emitted %v", src.rewinds, src.advanced, src.emitted)
				}
				return
			}
			e := epochOf(back, tc.eff)
			if src.rewinds != 1 || !slices.Equal(src.advanced, ascending(0, e)) || !slices.Equal(src.emitted, ascending(e-1, e)) {
				t.Fatalf("backward query: rewinds %d, advanced %v, emitted %v, want one rewind, 0..%d and the last two", src.rewinds, src.advanced, src.emitted, e)
			}
			if g.Name() != names[back] || !slices.Equal(s.Edges(), lists[back]) {
				t.Fatalf("replayed round %d is %q, was %q", back, g.Name(), names[back])
			}
			for r := back; r <= far; r++ {
				if s.At(r).Name() != names[r] || !slices.Equal(s.Edges(), lists[r]) || s.DeltaFor(r) != src.wantDelta(r, tc.eff) {
					t.Fatalf("round %d differs after the rewind", r)
				}
			}
			if s.At(-1).Name() != "fake@e0" || src.rewinds != 2 {
				t.Fatalf("At(-1) from epoch %d did not replay round 1", epochOf(far, tc.eff))
			}
		})
	}
}

// TestStepperInstall: a checkpointed (epoch, list) resumes without a rewind
// and without asking for any epoch again, reports no delta for the epoch it
// was taken in, jumps far ahead from the owner's restored state, and a state
// no run can write is refused by name with the Stepper untouched.
func TestStepperInstall(t *testing.T) {
	const n = 14
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			ref := newFakeSource(t, n)
			epoch := epochOf(7, tc.eff)
			src := newFakeSource(t, n)
			src.at = epoch // the owner restores its own state beside Install
			s := src.stepper(tc.tau, false)
			if err := s.Install(epoch, ref.want(epoch)); err != nil {
				t.Fatal(err)
			}
			first := firstRound(epoch, tc.eff)
			if g := s.At(first); s.Epoch() != epoch || g.Name() != fmt.Sprintf("fake@e%d", epoch) ||
				!g.EqualCSR(graph.BuildPacked(n, ref.want(epoch), "")) {
				t.Fatalf("installed epoch %d, got epoch %d graph %q", epoch, s.Epoch(), g.Name())
			}
			if d := s.DeltaFor(first); d.Change() {
				t.Fatalf("delta %+v right after a restore", d)
			}
			if tc.eff != Infinite {
				next := firstRound(epoch+1, tc.eff)
				added, removed := diffPairs(ref.want(epoch), ref.want(epoch+1))
				if d := s.DeltaFor(next); d != (Delta{len(added), len(removed)}) {
					t.Fatalf("first delta after a restore = %+v, want +%d -%d", d, len(added), len(removed))
				}
				if !slices.Equal(s.Edges(), ref.want(epoch+1)) {
					t.Fatal("restore-then-advance left the trajectory")
				}
			}
			s.At(30)
			far := epochOf(30, tc.eff)
			var wantEmitted []int
			if far > epoch { // DeltaFor(next) above, then the far jump's pair
				wantEmitted = []int{epoch + 1, far - 1, far}
			}
			if !slices.Equal(src.advanced, ascending(epoch+1, far)) || !slices.Equal(src.emitted, wantEmitted) || src.rewinds != 0 {
				t.Fatalf("after Install(%d): advanced %v, emitted %v, rewinds %d, want %d..%d, %v and none",
					epoch, src.advanced, src.emitted, src.rewinds, epoch+1, far, wantEmitted)
			}
			if !slices.Equal(s.Edges(), ref.want(far)) || s.DeltaFor(30) != ref.wantDelta(30, tc.eff) {
				t.Fatal("restore-then-jump left the trajectory")
			}
		})
	}

	src := newFakeSource(t, n)
	s := src.stepper(1, false)
	s.At(4)
	held := slices.Clone(s.Edges())
	good := src.want(2)
	for name, bad := range map[string]struct {
		epoch int
		edges []uint64
		err   string
	}{
		"epoch below -1":          {-3, good, "epoch -3"},
		"no epoch yet a list":     {-1, good, "epoch -1"},
		"list not canonical":      {2, []uint64{good[1], good[0]}, "edge list"},
		"endpoint past the graph": {2, []uint64{graph.PackEdge(0, n)}, "edge list"},
	} {
		err := s.Install(bad.epoch, bad.edges)
		if err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: Install error = %v, want one naming the %s", name, err, bad.err)
		}
		if s.Epoch() != 3 || !slices.Equal(s.Edges(), held) {
			t.Fatalf("%s: a refused Install changed the Stepper", name)
		}
	}
	// Epoch -1 with no list is what a lazy owner checkpoints before round 1.
	if err := s.Install(-1, nil); err != nil || s.Epoch() != -1 {
		t.Fatalf("Install(-1, nil) = %v, epoch %d", err, s.Epoch())
	}
	src.forget()
	src.at = -1
	if s.At(1); !slices.Equal(src.emitted, []int{0}) || src.rewinds != 0 {
		t.Fatalf("after Install(-1): emitted %v, rewinds %d", src.emitted, src.rewinds)
	}
}

// TestStepperStepAllocs: past the buffers' high-water mark an epoch costs
// the graph's name — fmt.Sprintf's two boxed operands and its result — and
// nothing else: the 3 allocs/op floor of BENCH_core.json's *_delta rows.
func TestStepperStepAllocs(t *testing.T) {
	const n = 512
	src := newFakeSource(t, n)
	lists := [2][]uint64{src.list(0), src.list(2)}
	s := NewStepper(n, 1, "fake", false, func() {}, func(int) {}, func(e int, buf []uint64) []uint64 {
		return append(buf, lists[e%2]...)
	})
	r := 1000 // epochs past 255, so that the name's number is really boxed
	s.At(r)
	if allocs := testing.AllocsPerRun(100, func() {
		r++
		s.At(r)
		s.DeltaFor(r)
	}); allocs > 3 {
		t.Fatalf("steady-state epoch allocates %.0f times, want ≤ 3", allocs)
	}
}

// TestStepperListBuildsNoCSR: List τ-steps exactly as At does and returns
// the list At's graph holds, but loads nothing — the Stepper has no graph
// and no Patcher until At asks — and At after List gives the graph At alone
// gives. Install, too, leaves the CSR to the first At. A list-only epoch
// past the buffers' high-water mark allocates nothing: the graph's name is
// formatted by the load that does not happen.
func TestStepperListBuildsNoCSR(t *testing.T) {
	const n = 14
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			lsrc, gsrc := newFakeSource(t, n), newFakeSource(t, n)
			listed, graphed := lsrc.stepper(tc.tau, false), gsrc.stepper(tc.tau, false)
			for _, r := range []int{1, 2, 3, 9, 10, 31, 4} { // ascending, a jump, a backward query
				edges := listed.List(r)
				if listed.g != nil || listed.patcher != nil {
					t.Fatalf("round %d: List built a CSR", r)
				}
				g := graphed.At(r)
				if !slices.Equal(edges, graphed.Edges()) || !slices.Equal(lsrc.emitted, gsrc.emitted) || lsrc.rewinds != gsrc.rewinds {
					t.Fatalf("round %d: List stepped to another list than At (emitted %v, %v)", r, lsrc.emitted, gsrc.emitted)
				}
				if d, want := listed.DeltaFor(r), graphed.DeltaFor(r); d != want || listed.g != nil {
					t.Fatalf("round %d: DeltaFor %+v after List, %+v after At (or it built a CSR)", r, d, want)
				}
				if lg := listed.At(r); !lg.EqualCSR(g) || lg.Name() != g.Name() {
					t.Fatalf("round %d: At after List gives %q, At alone %q", r, lg.Name(), g.Name())
				}
				listed.g, listed.patcher = nil, nil // the next round starts list-only again
			}

			epoch := epochOf(7, tc.eff)
			src := newFakeSource(t, n)
			src.at = epoch
			s := src.stepper(tc.tau, false)
			if err := s.Install(epoch, src.want(epoch)); err != nil {
				t.Fatal(err)
			}
			if s.g != nil || s.patcher != nil || !slices.Equal(s.List(7), src.want(epoch)) || s.g != nil {
				t.Fatal("Install or List after it built a CSR")
			}
			if g := s.At(7); g == nil || !g.EqualCSR(graph.BuildPacked(n, src.want(epoch), "")) {
				t.Fatal("At after Install is not the installed list's graph")
			}
		})
	}

	src := newFakeSource(t, 512)
	lists := [2][]uint64{src.list(0), src.list(2)}
	s := NewStepper(512, 1, "fake", false, func() {}, func(int) {}, func(e int, buf []uint64) []uint64 {
		return append(buf, lists[e%2]...)
	})
	r := 1000
	s.List(r)
	s.List(r + 1)
	if allocs := testing.AllocsPerRun(100, func() {
		r++
		s.List(r)
		s.DeltaFor(r)
	}); allocs != 0 {
		t.Fatalf("steady-state list-only epoch allocates %.0f times, want 0", allocs)
	}
}

// unpackEdge unpacks a packed edge into its (u, v) pair with u < v.
func unpackEdge(e uint64) [2]int32 { return [2]int32{int32(e >> 32), int32(uint32(e))} }
