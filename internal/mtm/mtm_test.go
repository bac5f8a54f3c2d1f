package mtm

import (
	"errors"
	"strings"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// minSpread is a toy test protocol: every node starts with its id as a
// value; connected pairs exchange minima; done when all nodes hold 0.
// With b=1 it advertises value parity so the engine's tag plumbing is
// exercised; decisions are blind coin flips as in BlindMatch.
type minSpread struct {
	vals      []int
	bitsPer   int
	tokensPer int

	// observation hooks for engine-conformance tests
	sawConnections []([2]int)
	recordPairs    bool
}

func newMinSpread(n int) *minSpread {
	p := &minSpread{vals: make([]int, n), bitsPer: 8, tokensPer: 1}
	for i := range p.vals {
		p.vals[i] = i
	}
	return p
}

func (p *minSpread) TagBits() int { return 1 }

func (p *minSpread) Tag(_ int, u NodeID) uint64 { return uint64(p.vals[u] & 1) }

func (p *minSpread) Decide(_ int, _ NodeID, view []Neighbor, rng *prand.RNG) Action {
	if len(view) == 0 || rng.Bool() {
		return Listen()
	}
	return Propose(view[rng.Intn(len(view))].ID)
}

func (p *minSpread) Exchange(_ int, c *Conn) {
	c.ChargeBits(p.bitsPer)
	c.ChargeTokens(p.tokensPer)
	u, v := c.Initiator, c.Responder
	m := p.vals[u]
	if p.vals[v] < m {
		m = p.vals[v]
	}
	p.vals[u], p.vals[v] = m, m
	if p.recordPairs {
		p.sawConnections = append(p.sawConnections, [2]int{u, v})
	}
}

func (p *minSpread) Done() bool {
	for _, v := range p.vals {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestRunCompletesMinSpread(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Cycle(16))
	p := newMinSpread(16)
	res, err := NewEngine(dyn, p, Config{Seed: 1, MaxRounds: 10000}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("did not complete in %d rounds", res.Rounds)
	}
	if res.Connections == 0 || res.Proposals < res.Connections {
		t.Fatalf("bogus counters: %+v", res)
	}
	if res.ControlBits != res.Connections*8 || res.TokensMoved != res.Connections {
		t.Fatalf("metering wrong: %+v", res)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() Result {
		dyn := dyngraph.RotatingRing(20, 1, 99)
		p := newMinSpread(20)
		res, err := NewEngine(dyn, p, Config{Seed: 5, MaxRounds: 50000}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	run := func(seed uint64) Result {
		dyn := dyngraph.NewStatic(graph.Cycle(24))
		p := newMinSpread(24)
		res, _ := NewEngine(dyn, p, Config{Seed: seed, MaxRounds: 50000}).Run()
		return res
	}
	if run(1) == run(2) {
		t.Log("two seeds coincided exactly (possible but unlikely); trying a third")
		if run(1) == run(3) {
			t.Fatal("executions identical across seeds")
		}
	}
}

// TestBackendsIdentical: Run and a caller's Step loop are the two ways to
// drive an engine, and they must produce the same execution.
func TestBackendsIdentical(t *testing.T) {
	mk := func() (*Engine, *minSpread) {
		p := newMinSpread(18)
		return NewEngine(dyngraph.RotatingRegular(18, 3, 2, 7), p, Config{Seed: 11, MaxRounds: 50000}), p
	}
	e, p := mk()
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	e, q := mk()
	for !e.Finished() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Result(); got != want {
		t.Fatalf("Step loop %+v != Run %+v", got, want)
	}
	for u := range p.vals {
		if p.vals[u] != q.vals[u] {
			t.Fatalf("node %d: Step loop value %d != Run %d", u, q.vals[u], p.vals[u])
		}
	}
}

func TestConnectionsFormMatching(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Complete(12))
	p := newMinSpread(12)
	p.recordPairs = true
	roundStart := 0
	var violations int
	eng := NewEngine(dyn, p, Config{Seed: 3, MaxRounds: 200})
	for !eng.Finished() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		// Each node may appear at most once among this round's pairs.
		seen := map[int]bool{}
		for _, pr := range p.sawConnections[roundStart:] {
			for _, node := range []int{pr[0], pr[1]} {
				if seen[node] {
					violations++
				}
				seen[node] = true
			}
		}
		roundStart = len(p.sawConnections)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d matching violations", violations)
	}
}

// proposerTrap proposes from every node every round; since proposers cannot
// receive, no connection can ever form.
type proposerTrap struct{ n int }

func (p *proposerTrap) TagBits() int           { return 0 }
func (p *proposerTrap) Tag(int, NodeID) uint64 { return 0 }
func (p *proposerTrap) Done() bool             { return false }
func (p *proposerTrap) Exchange(int, *Conn)    {}
func (p *proposerTrap) Decide(_ int, u NodeID, view []Neighbor, _ *prand.RNG) Action {
	if len(view) == 0 {
		return Listen()
	}
	return Propose(view[0].ID)
}

func TestProposerCannotReceive(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Complete(8))
	p := &proposerTrap{n: 8}
	res, err := NewEngine(dyn, p, Config{Seed: 1, MaxRounds: 50}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Connections != 0 {
		t.Fatalf("all-proposer round produced %d connections", res.Connections)
	}
	if res.Proposals != 8*50 {
		t.Fatalf("proposals = %d, want 400", res.Proposals)
	}
}

// badTag advertises 2 bits while declaring b=1.
type badTag struct{ minSpread }

func (p *badTag) TagBits() int           { return 1 }
func (p *badTag) Tag(int, NodeID) uint64 { return 2 }

func TestTagWidthEnforced(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Cycle(4))
	p := &badTag{*newMinSpread(4)}
	_, err := NewEngine(dyn, p, Config{Seed: 1, MaxRounds: 5}).Run()
	if !errors.Is(err, ErrTagTooWide) {
		t.Fatalf("err = %v, want ErrTagTooWide", err)
	}
}

// oddBadTag advertises 2 bits from odd nodes ≥ 5 while declaring b=1.
type oddBadTag struct{ minSpread }

func (p *oddBadTag) Tag(_ int, u NodeID) uint64 {
	if u >= 5 && u%2 == 1 {
		return 2
	}
	return 0
}

// TestTagErrorNamesLowestNode: the tag phase stops at its first violation,
// so the error names the lowest violating node, and the run stays failed.
func TestTagErrorNamesLowestNode(t *testing.T) {
	e := NewEngine(dyngraph.NewStatic(graph.Cycle(12)), &oddBadTag{*newMinSpread(12)}, Config{Seed: 1, MaxRounds: 5})
	_, err := e.Run()
	if !errors.Is(err, ErrTagTooWide) || !strings.Contains(err.Error(), "node 5 round 1 ") {
		t.Fatalf("err = %v, want ErrTagTooWide at node 5 round 1", err)
	}
	if _, again := e.Step(); again != err {
		t.Fatalf("Step after failure = %v, want the original %v", again, err)
	}
}

func TestBudgetEnforced(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Complete(6))
	p := newMinSpread(6)
	p.bitsPer = 1 << 20 // absurd per-connection cost
	_, err := NewEngine(dyn, p, Config{Seed: 2, MaxRounds: 100}).Run()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	p2 := newMinSpread(6)
	p2.tokensPer = 100
	_, err = NewEngine(dyn, p2, Config{Seed: 2, MaxRounds: 100}).Run()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("token err = %v, want ErrBudgetExceeded", err)
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Path(2))
	p := &proposerTrap{n: 2} // never completes
	res, err := NewEngine(dyn, p, Config{Seed: 1, MaxRounds: 17}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rounds != 17 {
		t.Fatalf("res = %+v, want 17 incomplete rounds", res)
	}
}

func TestDoneImmediately(t *testing.T) {
	dyn := dyngraph.NewStatic(graph.Path(3))
	p := newMinSpread(3)
	p.vals = []int{0, 0, 0}
	res, err := NewEngine(dyn, p, Config{Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 0 {
		t.Fatalf("res = %+v, want immediate completion", res)
	}
}

func TestMalformedProposalsLost(t *testing.T) {
	// A proposal to a non-neighbor must be dropped, not connect.
	dyn := dyngraph.NewStatic(graph.Path(3)) // 0-1-2
	p := &fixedTarget{target: 2}             // node 0 proposes to 2 (non-neighbor)
	res, err := NewEngine(dyn, p, Config{Seed: 1, MaxRounds: 10}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Connections != 0 {
		t.Fatalf("non-neighbor proposal connected: %+v", res)
	}
}

type fixedTarget struct{ target NodeID }

func (p *fixedTarget) TagBits() int           { return 0 }
func (p *fixedTarget) Tag(int, NodeID) uint64 { return 0 }
func (p *fixedTarget) Done() bool             { return false }
func (p *fixedTarget) Exchange(int, *Conn)    {}
func (p *fixedTarget) Decide(_ int, u NodeID, _ []Neighbor, _ *prand.RNG) Action {
	if u == 0 {
		return Propose(p.target)
	}
	return Listen()
}

func TestUniformAcceptance(t *testing.T) {
	// Star: all leaves propose to the hub every round; acceptance must be
	// ≈ uniform across leaves.
	n := 6
	dyn := dyngraph.NewStatic(graph.Star(n))
	p := &hubCounter{wins: make([]int, n)}
	res, err := NewEngine(dyn, p, Config{Seed: 9, MaxRounds: 5000}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Connections != 5000 {
		t.Fatalf("hub should connect every round, got %d", res.Connections)
	}
	for leaf := 1; leaf < n; leaf++ {
		if p.wins[leaf] < 700 || p.wins[leaf] > 1300 { // expect 1000 each
			t.Errorf("leaf %d accepted %d times (expect ≈1000)", leaf, p.wins[leaf])
		}
	}
}

type hubCounter struct{ wins []int }

func (p *hubCounter) TagBits() int           { return 0 }
func (p *hubCounter) Tag(int, NodeID) uint64 { return 0 }
func (p *hubCounter) Done() bool             { return false }
func (p *hubCounter) Exchange(_ int, c *Conn) {
	p.wins[c.Initiator]++
}
func (p *hubCounter) Decide(_ int, u NodeID, _ []Neighbor, _ *prand.RNG) Action {
	if u == 0 {
		return Listen()
	}
	return Propose(0)
}
