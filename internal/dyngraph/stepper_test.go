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
// the Stepper asked of it.
type fakeSource struct {
	n       int
	asked   []int // epochs produce was called for, in order
	rewinds int
}

func (f *fakeSource) list(e int) []uint64 {
	var out []uint64
	for u := 0; u < f.n; u++ {
		if v := u + 1 + (e/2+u)%3; v < f.n {
			out = append(out, graph.PackEdge(int32(u), int32(v)))
		}
	}
	return out
}

func (f *fakeSource) produce(e int, buf []uint64) []uint64 {
	f.asked = append(f.asked, e)
	return append(buf, f.list(e)...)
}

func (f *fakeSource) rewind() { f.rewinds++ }

func (f *fakeSource) stepper(tau int, rebuild bool) *Stepper {
	return NewStepper(f.n, tau, "fake", rebuild, f.rewind, f.produce)
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
			removed = append(removed, graph.UnpackEdge(prev[i]))
			i++
		default:
			added = append(added, graph.UnpackEdge(next[j]))
			j++
		}
	}
	for ; i < len(prev); i++ {
		removed = append(removed, graph.UnpackEdge(prev[i]))
	}
	for ; j < len(next); j++ {
		added = append(added, graph.UnpackEdge(next[j]))
	}
	return added, removed
}

func ascending(from, to int) []int {
	var s []int
	for e := from; e <= to; e++ {
		s = append(s, e)
	}
	return s
}

var stepperTaus = []struct {
	name string
	tau  int // as passed to NewStepper
	eff  int // as Stability reports it
}{{"τ=1", 1, 1}, {"τ=3", 3, 3}, {"τ=∞", 0, Infinite}}

// TestStepperAscendingQueries: epochs are produced once each and in order,
// every round's graph is the repaired list of its epoch under the name
// <label>@e<epoch>, Load and the Rebuild oracle agree, and DeltaFor is the
// oracle's set difference at the first round of an epoch and zero elsewhere.
func TestStepperAscendingQueries(t *testing.T) {
	const n, rounds = 14, 20
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			src, osrc := &fakeSource{n: n}, &fakeSource{n: n}
			s, oracle := src.stepper(tc.tau, false), osrc.stepper(tc.tau, true)
			if s.Stability() != tc.eff || s.N() != n || s.TauString() != tc.name {
				t.Fatalf("Stability %d, N %d, TauString %q", s.Stability(), s.N(), s.TauString())
			}
			if s.Epoch() != -1 || len(s.Edges()) != 0 || len(src.asked) != 0 {
				t.Fatalf("a new Stepper already produced: epoch %d, asked %v", s.Epoch(), src.asked)
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
				var wantDelta Delta
				if e > 0 && r == e*tc.eff+1 {
					added, removed := diffPairs(src.want(e-1), want)
					wantDelta = Delta{Added: len(added), Removed: len(removed)}
				}
				if d := s.DeltaFor(r); d != wantDelta {
					t.Fatalf("round %d: DeltaFor = %+v, set difference = %+v", r, d, wantDelta)
				}
			}
			if want := ascending(0, epochOf(rounds, tc.eff)); !slices.Equal(src.asked, want) || src.rewinds != 0 {
				t.Fatalf("asked for epochs %v (rewinds %d), want %v once each", src.asked, src.rewinds, want)
			}
		})
	}
}

// TestStepperBackwardQueryReplays: a query behind the current epoch rewinds
// the source once and replays from epoch 0 to identical lists and names;
// rounds ≤ 0 are round 1.
func TestStepperBackwardQueryReplays(t *testing.T) {
	const n, far, back = 14, 17, 5
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			src := &fakeSource{n: n}
			s := src.stepper(tc.tau, false)
			if g := s.At(0); g.Name() != "fake@e0" || s.At(-5) != g || s.At(1) != g {
				t.Fatalf("At(r ≤ 0) = %q, not round 1's graph", g.Name())
			}
			lists, names := map[int][]uint64{}, map[int]string{}
			for r := 1; r <= far; r++ {
				names[r] = s.At(r).Name()
				lists[r] = slices.Clone(s.Edges())
			}
			src.asked = nil
			g := s.At(back)
			if tc.eff == Infinite { // one epoch: nothing is ever behind
				if src.rewinds != 0 || len(src.asked) != 0 {
					t.Fatalf("frozen schedule replayed: rewinds %d, asked %v", src.rewinds, src.asked)
				}
				return
			}
			if want := ascending(0, epochOf(back, tc.eff)); src.rewinds != 1 || !slices.Equal(src.asked, want) {
				t.Fatalf("backward query: rewinds %d, asked %v, want one rewind and %v", src.rewinds, src.asked, want)
			}
			if g.Name() != names[back] || !slices.Equal(s.Edges(), lists[back]) {
				t.Fatalf("replayed round %d is %q, was %q", back, g.Name(), names[back])
			}
			for r := back; r <= far; r++ {
				if s.At(r).Name() != names[r] || !slices.Equal(s.Edges(), lists[r]) {
					t.Fatalf("round %d differs after the replay", r)
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
// was taken in, and a state no run can write is refused by name with the
// Stepper untouched.
func TestStepperInstall(t *testing.T) {
	const n = 14
	for _, tc := range stepperTaus {
		t.Run(tc.name, func(t *testing.T) {
			ref := &fakeSource{n: n}
			epoch := epochOf(7, tc.eff)
			src := &fakeSource{n: n}
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
			if want := ascending(epoch+1, epochOf(30, tc.eff)); !slices.Equal(src.asked, want) || src.rewinds != 0 {
				t.Fatalf("after Install(%d): asked %v, rewinds %d, want %v and none", epoch, src.asked, src.rewinds, want)
			}
		})
	}

	src := &fakeSource{n: n}
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
	src.asked = nil
	if s.At(1); !slices.Equal(src.asked, []int{0}) || src.rewinds != 0 {
		t.Fatalf("after Install(-1): asked %v, rewinds %d", src.asked, src.rewinds)
	}
}

// TestStepperStepAllocs: past the buffers' high-water mark an epoch costs
// the graph's name — fmt.Sprintf's two boxed operands and its result — and
// nothing else: the 3 allocs/op floor of BENCH_core.json's *_delta rows.
func TestStepperStepAllocs(t *testing.T) {
	const n = 512
	src := &fakeSource{n: n}
	lists := [2][]uint64{src.list(0), src.list(2)}
	s := NewStepper(n, 1, "fake", false, func() {}, func(e int, buf []uint64) []uint64 {
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
