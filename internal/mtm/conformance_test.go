package mtm

// Engine-conformance tests beyond the basics in mtm_test.go: the §2 model
// rules are enforced by the engine, so these tests observe executions
// through instrumented protocols and check each rule directly.

import (
	"sort"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// observer is a protocol that records every decision and connection,
// proposing with probability 1/2 to a uniform neighbor. It never
// terminates on its own; runs bound it with MaxRounds.
type observer struct {
	n int

	proposals map[int]map[int]int // round -> proposer -> target
	conns     map[int][][2]int    // round -> (initiator, responder)
}

func newObserver(n int) *observer {
	return &observer{
		n:         n,
		proposals: make(map[int]map[int]int),
		conns:     make(map[int][][2]int),
	}
}

func (o *observer) TagBits() int           { return 0 }
func (o *observer) Tag(int, NodeID) uint64 { return 0 }
func (o *observer) Done() bool             { return false }

func (o *observer) Decide(r int, u NodeID, view View, rng *prand.RNG) Action {
	if len(view.IDs) == 0 || rng.Bool() {
		return Listen()
	}
	target := int(view.IDs[rng.Intn(len(view.IDs))])
	if o.proposals[r] == nil {
		o.proposals[r] = make(map[int]int)
	}
	o.proposals[r][u] = target
	return Propose(target)
}

func (o *observer) Exchange(r int, c *Conn) {
	c.ChargeBits(1)
	o.conns[r] = append(o.conns[r], [2]int{c.Initiator, c.Responder})
}

// TestProposerNeverReceives: a node that sends a proposal cannot accept
// one in the same round (§2).
func TestProposerNeverReceives(t *testing.T) {
	const n, rounds = 24, 60
	o := newObserver(n)
	dyn := dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(3)))
	if _, err := NewEngine(dyn, o, Config{Seed: 7, MaxRounds: rounds}).Run(); err != nil {
		t.Fatal(err)
	}
	for r, conns := range o.conns {
		for _, c := range conns {
			if _, proposed := o.proposals[r][c[1]]; proposed {
				t.Errorf("round %d: responder %d had itself proposed", r, c[1])
			}
		}
	}
}

// TestConnectionsComeFromProposals: every accepted connection's initiator
// proposed exactly that responder in that round.
func TestConnectionsComeFromProposals(t *testing.T) {
	const n, rounds = 24, 60
	o := newObserver(n)
	dyn := dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(5)))
	if _, err := NewEngine(dyn, o, Config{Seed: 11, MaxRounds: rounds}).Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for r, conns := range o.conns {
		for _, c := range conns {
			total++
			target, ok := o.proposals[r][c[0]]
			if !ok {
				t.Errorf("round %d: initiator %d never proposed", r, c[0])
			} else if target != c[1] {
				t.Errorf("round %d: initiator %d proposed %d but connected to %d",
					r, c[0], target, c[1])
			}
		}
	}
	if total == 0 {
		t.Fatal("no connections observed; test vacuous")
	}
}

// TestStarContentionOneConnectionPerRound: when every leaf proposes to the
// hub, at most one connection forms per round — the bounded-concurrency
// rule the classical telephone model lacks and the mobile model enforces.
func TestStarContentionOneConnectionPerRound(t *testing.T) {
	const n, rounds = 16, 40
	p := &hubFlood{}
	dyn := dyngraph.NewStatic(graph.Star(n))
	if _, err := NewEngine(dyn, p, Config{Seed: 2, MaxRounds: rounds}).Run(); err != nil {
		t.Fatal(err)
	}
	if p.rounds == 0 {
		t.Fatal("no rounds observed")
	}
	if p.maxPerRound > 1 {
		t.Errorf("hub accepted %d connections in one round; model allows 1", p.maxPerRound)
	}
	if p.total == 0 {
		t.Error("no connections at all; acceptance must pick one of the flood")
	}
}

// hubFlood: every leaf proposes to the hub (node 0) every round.
type hubFlood struct {
	perRound    map[int]int
	maxPerRound int
	total       int
	rounds      int
}

func (p *hubFlood) TagBits() int           { return 0 }
func (p *hubFlood) Tag(int, NodeID) uint64 { return 0 }
func (p *hubFlood) Done() bool             { return false }

func (p *hubFlood) Decide(r int, u NodeID, view View, _ *prand.RNG) Action {
	p.rounds = r
	if u == 0 {
		return Listen()
	}
	return Propose(0)
}

func (p *hubFlood) Exchange(r int, c *Conn) {
	c.ChargeBits(1)
	if p.perRound == nil {
		p.perRound = make(map[int]int)
	}
	p.perRound[r]++
	if p.perRound[r] > p.maxPerRound {
		p.maxPerRound = p.perRound[r]
	}
	p.total++
}

// viewChecker verifies that each node's per-round scan view contains
// exactly its topology neighbors, and that the view's tags are what every
// node, the scanning one included, advertises this round.
type viewChecker struct {
	t      *testing.T
	dyn    dyngraph.Dynamic
	checks int
}

func (p *viewChecker) TagBits() int { return 3 }

// Tag derives a deterministic per-(round, node) value so the checker can
// recompute what any neighbor must be advertising.
func (p *viewChecker) Tag(r int, u NodeID) uint64 {
	return uint64((r*31 + u*17) % 8)
}

func (p *viewChecker) Decide(r int, u NodeID, view View, _ *prand.RNG) Action {
	g := p.dyn.At(r)
	var want []int
	for _, v := range g.Adjacency(u) {
		want = append(want, int(v))
	}
	if exp := p.Tag(r, u); view.Tags[u] != exp {
		p.t.Errorf("round %d node %d: own tag reads %d, want %d", r, u, view.Tags[u], exp)
	}
	got := make([]int, 0, len(view.IDs))
	for _, v := range view.IDs {
		got = append(got, int(v))
		if exp := p.Tag(r, int(v)); view.Tags[v] != exp {
			p.t.Errorf("round %d node %d: neighbor %d advertises %d, want %d",
				r, u, v, view.Tags[v], exp)
		}
	}
	sort.Ints(want)
	sort.Ints(got)
	if len(want) != len(got) {
		p.t.Errorf("round %d node %d: view has %d entries, want %d", r, u, len(got), len(want))
	} else {
		for i := range want {
			if want[i] != got[i] {
				p.t.Errorf("round %d node %d: view %v != neighbors %v", r, u, got, want)
				break
			}
		}
	}
	p.checks++
	return Listen()
}

func (p *viewChecker) Exchange(int, *Conn) {}
func (p *viewChecker) Done() bool          { return false }

func TestViewMatchesTopologyAndTags(t *testing.T) {
	dyn := dyngraph.RotatingRegular(18, 4, 2, 9) // changing topology stresses re-scan
	p := &viewChecker{t: t, dyn: dyn}
	if _, err := NewEngine(dyn, p, Config{Seed: 4, MaxRounds: 20}).Run(); err != nil {
		t.Fatal(err)
	}
	if p.checks != 18*20 {
		t.Errorf("checked %d views, want %d", p.checks, 18*20)
	}
}

// TestResultTotalsConsistent: proposals ≥ connections, and both count
// only what the protocol actually did.
func TestResultTotalsConsistent(t *testing.T) {
	o := newObserver(20)
	dyn := dyngraph.NewStatic(graph.RandomRegular(20, 4, prand.New(8)))
	res, err := NewEngine(dyn, o, Config{Seed: 6, MaxRounds: 50}).Run()
	if err != nil {
		t.Fatal(err)
	}
	var props, conns int64
	for _, m := range o.proposals {
		props += int64(len(m))
	}
	for _, cs := range o.conns {
		conns += int64(len(cs))
	}
	if res.Proposals != props {
		t.Errorf("engine counted %d proposals, protocol saw %d", res.Proposals, props)
	}
	if res.Connections != conns {
		t.Errorf("engine counted %d connections, protocol saw %d", res.Connections, conns)
	}
	if res.Connections > res.Proposals {
		t.Errorf("more connections (%d) than proposals (%d)", res.Connections, res.Proposals)
	}
}
