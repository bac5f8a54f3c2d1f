package mtm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

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

func (p *minSpread) Decide(_ int, _ NodeID, view View, rng *prand.RNG) Action {
	if len(view.IDs) == 0 || rng.Bool() {
		return Listen()
	}
	return Propose(int(view.IDs[rng.Intn(len(view.IDs))]))
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
func (p *proposerTrap) Decide(_ int, u NodeID, view View, _ *prand.RNG) Action {
	if len(view.IDs) == 0 {
		return Listen()
	}
	return Propose(int(view.IDs[0]))
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
func (p *fixedTarget) Decide(_ int, u NodeID, _ View, _ *prand.RNG) Action {
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
func (p *hubCounter) Decide(_ int, u NodeID, _ View, _ *prand.RNG) Action {
	if u == 0 {
		return Listen()
	}
	return Propose(0)
}

// evenToOdd: every even node proposes to the next node, so a path of n
// nodes forms n/2 connections every round — enough to fan out.
type evenToOdd struct{ onExchange func(c *Conn) }

func (p *evenToOdd) TagBits() int           { return 0 }
func (p *evenToOdd) Tag(int, NodeID) uint64 { return 0 }
func (p *evenToOdd) Done() bool             { return false }
func (p *evenToOdd) Decide(_ int, u NodeID, _ View, _ *prand.RNG) Action {
	if u%2 == 0 {
		return Propose(u + 1)
	}
	return Listen()
}
func (p *evenToOdd) Exchange(_ int, c *Conn) {
	c.ChargeBits(1)
	if p.onExchange != nil {
		p.onExchange(c)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestConcurrentExchangePanicReachesCaller: a panic inside Exchange on a
// helper goroutine must not crash the process; Step re-raises it on the
// caller with the original value once the round's other chunks are done.
func TestConcurrentExchangePanicReachesCaller(t *testing.T) {
	defer SetExchangeMin(1)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("exchange exploded")
	caller := goid()
	p := &evenToOdd{onExchange: func(*Conn) {
		if goid() != caller {
			panic(boom)
		}
		// Keep the caller busy so an offered helper gets to claim a chunk.
		time.Sleep(time.Millisecond)
	}}
	e := NewEngine(dyngraph.NewStatic(graph.Path(64)), p, Config{Seed: 1, MaxRounds: 1 << 20})
	for i := 0; i < 100; i++ {
		var got any
		func() {
			defer func() { got = recover() }()
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}()
		if got != nil {
			if got != boom {
				t.Fatalf("Step panicked with %v, want %v", got, boom)
			}
			return
		}
	}
	t.Fatal("no helper ran a chunk in 100 rounds")
}

// panicStage is a static schedule whose every epoch is stageable and whose
// stage panics.
type panicStage struct {
	*dyngraph.Static
	v any
}

func (panicStage) Stageable(int) bool   { return true }
func (p panicStage) Stage(int) []uint64 { panic(p.v) }

// TestConcurrentStagePanicReachesCaller: a panic inside an epoch staged on a
// helper must not crash the process; Step re-raises it on the caller's
// goroutine with the original value, after the round's exchanges, and the
// engine holds no stage afterwards.
func TestConcurrentStagePanicReachesCaller(t *testing.T) {
	defer SetExchangeMin(1)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("stage exploded")
	e := NewEngine(panicStage{dyngraph.NewStatic(graph.Path(64)), boom}, &evenToOdd{onExchange: func(*Conn) {}}, Config{Seed: 1, MaxRounds: 1 << 20})
	for i := 0; i < 100; i++ {
		// An offer lands only on a parked helper; a round of microseconds
		// can end before the helper it started is back on the channel.
		time.Sleep(time.Millisecond)
		var got any
		func() {
			defer func() { got = recover() }()
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}()
		if got != nil {
			if got != boom || e.staging {
				t.Fatalf("Step panicked with %v (still staging: %v), want %v", got, e.staging, boom)
			}
			return
		}
	}
	t.Fatal("no helper took a stage in 100 rounds")
}

// listener never proposes and draws nothing in Decide.
type listener struct{}

func (listener) TagBits() int                                { return 1 }
func (listener) Tag(_ int, u NodeID) uint64                  { return uint64(u & 1) }
func (listener) Decide(int, NodeID, View, *prand.RNG) Action { return Listen() }
func (listener) Exchange(int, *Conn)                         {}
func (listener) Done() bool                                  { return false }

// TestSilentRoundDrawsNothing: a round in which no node proposes ends after
// Decide, so it connects nobody and leaves every node's stream untouched —
// skipping delivery and acceptance there is exact.
func TestSilentRoundDrawsNothing(t *testing.T) {
	const n = 32
	e := NewEngine(dyngraph.NewStatic(graph.Complete(n)), listener{}, Config{Seed: 5, MaxRounds: 10})
	before := make([][4]uint64, n)
	for u := range before {
		before[u] = e.rngs[u].State()
	}
	for r := 1; r <= 3; r++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Proposals != 0 || st.Connections != 0 {
			t.Fatalf("round %d: %+v, want no proposals and no connections", r, st)
		}
	}
	for u, s := range before {
		if got := e.rngs[u].State(); got != s {
			t.Fatalf("node %d: stream moved from %x to %x in rounds without proposals", u, s, got)
		}
	}
	if res := e.Result(); res.Connections != 0 || res.Proposals != 0 || res.Rounds != 3 {
		t.Fatalf("result %+v", res)
	}
}
