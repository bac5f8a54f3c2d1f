package core

import (
	"runtime"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/leader"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
	"mobilegossip/internal/rumor"
)

func TestAssignmentValidate(t *testing.T) {
	cases := []struct {
		name string
		a    Assignment
		n    int
		ok   bool
	}{
		{"ok", OneTokenPerNode(8, 4), 8, true},
		{"lenmismatch", Assignment{Universe: 8, Tokens: []int{1}, Owners: nil}, 8, false},
		{"smalluniverse", Assignment{Universe: 4, Tokens: []int{1}, Owners: []int{0}}, 8, false},
		{"tokenrange", Assignment{Universe: 8, Tokens: []int{9}, Owners: []int{0}}, 8, false},
		{"tokenzero", Assignment{Universe: 8, Tokens: []int{0}, Owners: []int{0}}, 8, false},
		{"dup", Assignment{Universe: 8, Tokens: []int{3, 3}, Owners: []int{0, 1}}, 8, false},
		{"ownerrange", Assignment{Universe: 8, Tokens: []int{1}, Owners: []int{8}}, 8, false},
		{"multipertoken-ok", Assignment{Universe: 8, Tokens: []int{1, 2}, Owners: []int{0, 0}}, 8, true},
	}
	for _, c := range cases {
		err := c.a.Validate(c.n)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestOneTokenPerNode(t *testing.T) {
	a := OneTokenPerNode(10, 4)
	if len(a.Tokens) != 4 || a.Universe != 10 {
		t.Fatalf("a = %+v", a)
	}
	a = OneTokenPerNode(5, 9) // k clamped to n
	if len(a.Tokens) != 5 {
		t.Fatalf("k not clamped: %d", len(a.Tokens))
	}
}

func TestNewStatePotential(t *testing.T) {
	st, err := NewState(6, OneTokenPerNode(6, 3), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// φ(1) = Σ (k − |T_u|) = 3 nodes missing 2 + 3 nodes missing 3 = 15.
	if got := st.Potential(); got != 15 {
		t.Fatalf("φ = %d, want 15", got)
	}
	if st.AllDone() {
		t.Fatal("fresh state done")
	}
	if st.N() != 6 || st.K() != 3 || st.Universe() != 6 {
		t.Fatal("accessors wrong")
	}
}

// TestNewStateBacksAssignedSpan pins what a State allocates per node: sets
// are backed for [1, max assigned id], not for the universe, so the paper's
// canonical assignment at n = N = 50,000, k = 4 costs a word of backing per
// node — ≤ 64 B/node on top of the 64 B/node of set headers and pointers —
// where a universe-backed arena cost N/8 = 6.2 KB/node (313 MB). An
// assignment whose ids reach N gets the old size, never more; k = 0 works.
func TestNewStateBacksAssignedSpan(t *testing.T) {
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := NewState(n, OneTokenPerNode(n, 4), 1e-3)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const headers = 64 // one tokenset.Set (56 B) and one *Set (8 B) per node
	if perNode := (after.TotalAlloc - before.TotalAlloc) / n; perNode > headers+64 {
		t.Fatalf("NewState allocated %d B/node, want ≤ %d (set backing ≤ 64 B/node)", perNode, headers+64)
	}
	if st.Universe() != n || st.Set(0).Universe() != n || !st.Set(3).Has(4) || st.Set(3).Has(n) {
		t.Fatal("span-backed sets lost their universe or their tokens")
	}

	high, err := NewState(16, Assignment{Universe: 200, Tokens: []int{199, 200}, Owners: []int{0, 5}}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p := mustSharedBit(t, high, prand.NewSharedString(3), 1)
	checkSolved(t, p, runGossip(t, dyngraph.NewStatic(graph.Cycle(16)), p, 8, 1<<20))
	if !high.Set(9).Has(199) || !high.Set(9).Has(200) {
		t.Fatal("ids at the top of the universe were not gossiped")
	}

	if empty, err := NewState(8, OneTokenPerNode(8, 0), 1e-3); err != nil || !empty.AllDone() {
		t.Fatalf("k = 0: err %v", err)
	}
}

func TestNewStateRejectsBadAssignment(t *testing.T) {
	if _, err := NewState(4, Assignment{Universe: 4, Tokens: []int{5}, Owners: []int{0}}, 0.01); err == nil {
		t.Fatal("bad assignment accepted")
	}
}

// runGossip drives a protocol to completion and returns the result.
func runGossip(t *testing.T, dyn dyngraph.Dynamic, p mtm.Protocol, seed uint64, maxRounds int) mtm.Result {
	t.Helper()
	res, err := mtm.NewEngine(dyn, p, mtm.Config{Seed: seed, MaxRounds: maxRounds}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type stateful interface{ State() *State }

// checkSolved asserts full gossip completion.
func checkSolved(t *testing.T, p stateful, res mtm.Result) {
	t.Helper()
	if !res.Completed {
		t.Fatalf("gossip incomplete after %d rounds (φ=%d)", res.Rounds, p.State().Potential())
	}
	if phi := p.State().Potential(); phi != 0 {
		t.Fatalf("completed but φ=%d", phi)
	}
}

func TestBlindMatchSolvesGossipStatic(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(16), graph.Complete(16), graph.Star(16)} {
		st, err := NewState(16, OneTokenPerNode(16, 4), 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		p := NewBlindMatch(st)
		res := runGossip(t, dyngraph.NewStatic(g), p, 1, 1<<20)
		checkSolved(t, p, res)
	}
}

func TestBlindMatchSolvesGossipDynamic(t *testing.T) {
	st, err := NewState(16, OneTokenPerNode(16, 3), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewBlindMatch(st)
	res := runGossip(t, dyngraph.RotatingRing(16, 1, 5), p, 2, 1<<20)
	checkSolved(t, p, res)
}

func TestSharedBitSolvesGossipStatic(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(16), graph.Complete(16), graph.DoubleStar(16)} {
		st, err := NewState(16, OneTokenPerNode(16, 4), 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		p := mustSharedBit(t, st, prand.NewSharedString(99), 1)
		res := runGossip(t, dyngraph.NewStatic(g), p, 3, 1<<20)
		checkSolved(t, p, res)
	}
}

func TestSharedBitSolvesGossipDynamic(t *testing.T) {
	st, err := NewState(20, OneTokenPerNode(20, 5), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p := mustSharedBit(t, st, prand.NewSharedString(7), 1)
	res := runGossip(t, dyngraph.NewRegen(20, 1, 9, "gnp",
		func(_ int, rng *prand.RNG) *graph.Graph { return graph.GNP(20, 0.2, rng) }), p, 4, 1<<20)
	checkSolved(t, p, res)
}

func TestSharedBitAdvertisementLemma52(t *testing.T) {
	// Lemma 5.2: equal sets ⇒ equal bits (always); different sets ⇒
	// different bits with probability exactly 1/2 over the shared bits.
	stA, _ := NewState(4, Assignment{Universe: 16, Tokens: []int{3, 7}, Owners: []int{0, 1}}, 0.01)
	p := mustSharedBit(t, stA, prand.NewSharedString(1), 1)
	// Node 0 owns {3}, node 1 owns {7}, nodes 2,3 own {}.
	diff := 0
	const rounds = 20000
	for r := 1; r <= rounds; r++ {
		b0 := p.Tag(r, 0)
		b1 := p.Tag(r, 1)
		b2 := p.Tag(r, 2)
		b3 := p.Tag(r, 3)
		if b2 != 0 || b3 != 0 {
			t.Fatal("empty sets must advertise 0")
		}
		if b0 != b1 {
			diff++
		}
	}
	if diff < rounds/2-600 || diff > rounds/2+600 {
		t.Fatalf("P(b_u≠b_v) = %f, want ≈ 1/2", float64(diff)/rounds)
	}
}

func TestSharedBitPotentialNonIncreasing(t *testing.T) {
	st, err := NewState(12, OneTokenPerNode(12, 4), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p := mustSharedBit(t, st, prand.NewSharedString(2), 1)
	last := st.Potential()
	eng := mtm.NewEngine(dyngraph.NewStatic(graph.Cycle(12)), p, mtm.Config{Seed: 5, MaxRounds: 1 << 20})
	for !eng.Finished() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		cur := st.Potential()
		if cur > last {
			t.Fatalf("round %d: φ increased %d -> %d", eng.Round(), last, cur)
		}
		last = cur
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if last != 0 {
		t.Fatalf("final φ = %d", last)
	}
}

func TestSimSharedBitSolvesGossip(t *testing.T) {
	for _, tau := range []int{1, 4} {
		st, err := NewState(16, OneTokenPerNode(16, 4), 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		space := prand.NewSeedSpace(16)
		seeds := SampleSeeds(space, 16, prand.New(33))
		p := NewSimSharedBit(st, space, seeds)
		res := runGossip(t, dyngraph.RotatingRegular(16, 3, tau, 11), p, 6, 1<<21)
		checkSolved(t, p, res)
		if !p.lead.Converged() {
			t.Error("gossip finished but leader never converged (possible, but suspicious on an expander)")
		}
	}
}

func TestSimSharedBitLeaderElectsMin(t *testing.T) {
	st, err := NewState(12, OneTokenPerNode(12, 2), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	space := prand.NewSeedSpace(12)
	seeds := SampleSeeds(space, 12, prand.New(8))
	p := NewSimSharedBit(st, space, seeds)
	// Gossip may finish before the election converges: the run goes on, within
	// a bound, until both are done, so the election is always checked.
	res := runGossip(t, dyngraph.NewStatic(graph.Complete(12)), untilElected{p}, 7, 1<<16)
	if !res.Completed || !p.lead.Converged() {
		t.Fatalf("after %d rounds: φ = %d, election converged: %v", res.Rounds, st.Potential(), p.lead.Converged())
	}
	checkSolved(t, p, res)
	// UID u+1 makes node 0 the minimum: every node must hold its seed.
	for u := 0; u < 12; u++ {
		if p.lead.Payload(u) != seeds[0] {
			t.Fatalf("node %d holds payload %d after convergence, want the minimum UID's %d", u, p.lead.Payload(u), seeds[0])
		}
	}
}

// untilElected runs SimSharedBit until its leader election has converged
// as well as its gossip.
type untilElected struct{ *SimSharedBit }

func (p untilElected) Done() bool { return p.SimSharedBit.Done() && p.lead.Converged() }

func TestCrowdedBinSolvesGossipSmall(t *testing.T) {
	st, err := NewState(8, OneTokenPerNode(8, 2), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewCrowdedBin(st, CrowdedBinConfig{}, prand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	res := runGossip(t, dyngraph.NewStatic(graph.Complete(8)), p, 8, 1<<22)
	checkSolved(t, p, res)
}

func TestCrowdedBinSolvesGossipRing(t *testing.T) {
	st, err := NewState(8, OneTokenPerNode(8, 4), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewCrowdedBin(st, CrowdedBinConfig{}, prand.New(22))
	if err != nil {
		t.Fatal(err)
	}
	res := runGossip(t, dyngraph.NewStatic(graph.Cycle(8)), p, 9, 1<<22)
	checkSolved(t, p, res)
}

func TestCrowdedBinEstimatesNeverDecrease(t *testing.T) {
	st, err := NewState(8, OneTokenPerNode(8, 8), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewCrowdedBin(st, CrowdedBinConfig{}, prand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]int, 8)
	for u := range prev {
		prev[u] = p.Estimate(u)
	}
	eng := mtm.NewEngine(dyngraph.NewStatic(graph.Complete(8)), p, mtm.Config{Seed: 10, MaxRounds: 1 << 22})
	for !eng.Finished() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 8; u++ {
			if p.Estimate(u) < prev[u] {
				t.Fatalf("round %d: node %d estimate decreased %d -> %d", eng.Round(), u, prev[u], p.Estimate(u))
			}
			prev[u] = p.Estimate(u)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSolved(t, p, res)
}

func TestCrowdedBinRejectsMultiTokenStart(t *testing.T) {
	st, err := NewState(4, Assignment{Universe: 4, Tokens: []int{1, 2}, Owners: []int{0, 0}}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCrowdedBin(st, CrowdedBinConfig{}, prand.New(1)); err != ErrMultiTokenStart {
		t.Fatalf("err = %v, want ErrMultiTokenStart", err)
	}
}

func TestEpsilonGossipSolvesEarlierThanFull(t *testing.T) {
	n := 24
	mk := func() *SharedBit {
		st, err := NewState(n, OneTokenPerNode(n, n), 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		return mustSharedBit(t, st, prand.NewSharedString(5), 1)
	}
	pFull := mk()
	resFull := runGossip(t, dyngraph.NewStatic(graph.Complete(n)), pFull, 11, 1<<21)
	checkSolved(t, pFull, resFull)

	pEps := NewEpsilonOver(mk(), 0.5, 1)
	resEps := runGossip(t, dyngraph.NewStatic(graph.Complete(n)), pEps, 11, 1<<21)
	if !resEps.Completed {
		t.Fatalf("ε-gossip incomplete after %d rounds", resEps.Rounds)
	}
	if resEps.Rounds > resFull.Rounds {
		t.Fatalf("ε-gossip (%d rounds) slower than full gossip (%d rounds)",
			resEps.Rounds, resFull.Rounds)
	}
}

// TestGossipDeterministicAcrossBackends: the engine's unprofiled and
// profiled round paths must produce the same run.
func TestGossipDeterministicAcrossBackends(t *testing.T) {
	run := func(prof *profile.Recorder) (mtm.Result, int) {
		st, err := NewState(14, OneTokenPerNode(14, 3), 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		p := mustSharedBit(t, st, prand.NewSharedString(4), 1)
		eng := mtm.NewEngine(dyngraph.RotatingRing(14, 2, 6), p, mtm.Config{Seed: 13, MaxRounds: 1 << 20})
		eng.SetProfiler(prof)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, st.Potential()
	}
	plainRes, plainPhi := run(nil)
	profRes, profPhi := run(profile.NewRecorder())
	if plainRes != profRes || plainPhi != profPhi {
		t.Fatalf("backends diverged: %+v/%d vs %+v/%d", plainRes, plainPhi, profRes, profPhi)
	}
}

func TestGossipStaysWithinBudget(t *testing.T) {
	// The model allows O(1) tokens + polylog bits per connection; every
	// algorithm must respect the engine's default budget.
	st1, _ := NewState(16, OneTokenPerNode(16, 8), 1e-4)
	st2, _ := NewState(16, OneTokenPerNode(16, 8), 1e-4)
	protos := []mtm.Protocol{
		NewBlindMatch(st1),
		mustSharedBit(t, st2, prand.NewSharedString(1), 1),
	}
	for i, p := range protos {
		if _, err := mtm.NewEngine(dyngraph.NewStatic(graph.Complete(16)), p,
			mtm.Config{Seed: uint64(i), MaxRounds: 1 << 20}).Run(); err != nil {
			t.Errorf("protocol %d violated budget: %v", i, err)
		}
	}
}

// tagProbe wraps a protocol and checks, before every Decide, that the
// view's tag for the deciding node is what Tag returns for it when asked
// again: the algorithms read their own advertisement as view.Tags[u]
// instead of recomputing it, which is exact only if the two agree.
type tagProbe struct {
	mtm.Protocol
	t      *testing.T
	name   string
	checks int
}

func (p *tagProbe) Decide(r int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	if got, want := view.Tags[u], p.Tag(r, u); got != want {
		p.t.Fatalf("%s round %d node %d: view.Tags[u] = %#x, Tag(r, u) = %#x", p.name, r, u, got, want)
	}
	p.checks++
	return p.Protocol.Decide(r, u, view, rng)
}

// TestViewTagsAreTags runs every algorithm, and the two subroutines that
// run standalone, under the probe for every round of a run to completion.
func TestViewTagsAreTags(t *testing.T) {
	const n, k, rounds = 16, 4, 20000
	state := func() *State { return mustState(t, n, OneTokenPerNode(n, k)) }
	space := prand.NewSeedSpace(n)
	cb, err := NewCrowdedBin(state(), CrowdedBinConfig{}, prand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = n - i
	}
	protos := map[string]mtm.Protocol{
		"blindmatch":   NewBlindMatch(state()),
		"sharedbit":    mustSharedBit(t, state(), prand.NewSharedString(2), 1),
		"multibit":     mustSharedBit(t, state(), prand.NewSharedString(3), 3),
		"simsharedbit": NewSimSharedBit(state(), space, SampleSeeds(space, n, prand.New(4))),
		"crowdedbin":   cb,
		"epsilon":      NewEpsilonOver(mustSharedBit(t, state(), prand.NewSharedString(5), 1), 0.5, 1),
		"leader":       leader.New(ids, make([]uint64, n)),
		"rumor":        rumor.New(n, []int{0}),
	}
	for name, proto := range protos {
		var dyn dyngraph.Dynamic = dyngraph.RotatingRing(n, 2, 6)
		if name == "crowdedbin" {
			dyn = dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(6)))
		}
		probe := &tagProbe{Protocol: proto, t: t, name: name}
		res, err := mtm.NewEngine(dyn, probe, mtm.Config{Seed: 9, MaxRounds: rounds}).Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed || probe.checks != n*res.Rounds {
			t.Errorf("%s: %d checks over %d rounds, completed %v", name, probe.checks, res.Rounds, res.Completed)
		}
	}
}
