package core

import (
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// mustState builds run state with a tight transfer error bound, failing
// the test on invalid assignments.
func mustState(t *testing.T, n int, a Assignment) *State {
	t.Helper()
	st, err := NewState(n, a, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustSharedBit builds a b-bit SharedBit, failing the test on an invalid
// width.
func mustSharedBit(t *testing.T, st *State, shared *prand.SharedString, b int) *SharedBit {
	t.Helper()
	p, err := NewSharedBit(st, shared, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewMultiBitValidatesWidth(t *testing.T) {
	st := mustState(t, 4, OneTokenPerNode(4, 2))
	shared := prand.NewSharedString(1)
	for _, b := range []int{0, -1, 65} {
		if _, err := NewSharedBit(st, shared, b); err == nil {
			t.Errorf("NewSharedBit(b=%d) should fail", b)
		}
	}
	for _, b := range []int{1, 2, 64} {
		if _, err := NewSharedBit(st, shared, b); err != nil {
			t.Errorf("NewSharedBit(b=%d): %v", b, err)
		}
	}
}

// TestMultiBitLemma52Analog: with b bits, equal sets always advertise equal
// tags, and different sets advertise different tags with probability
// 1 − 2^{−b}.
func TestMultiBitLemma52Analog(t *testing.T) {
	const groups = 4000
	shared := prand.NewSharedString(99)

	// Nodes 0 and 2 hold {3, 17, 40}; node 1 holds one token more.
	st := mustState(t, 3, Assignment{Universe: 64,
		Tokens: []int{3, 17, 40, 55}, Owners: []int{0, 0, 0, 1}})
	for _, tok := range []int{3, 17, 40} {
		st.sets[1].Add(tok)
		st.sets[2].Add(tok)
	}

	for _, width := range []int{1, 2, 4, 8} {
		mb := mustSharedBit(t, st, shared, width)
		equalDiffer, differDiffer := 0, 0
		for g := 1; g <= groups; g++ {
			ta, tb, taa := mb.Tag(g, 0), mb.Tag(g, 1), mb.Tag(g, 2)
			if ta != taa {
				equalDiffer++
			}
			if ta != tb {
				differDiffer++
			}
		}
		if equalDiffer != 0 {
			t.Errorf("b=%d: equal sets disagreed %d times", width, equalDiffer)
		}
		want := 1 - 1/float64(int64(1)<<uint(width))
		got := float64(differDiffer) / groups
		if diff := got - want; diff < -0.05 || diff > 0.05 {
			t.Errorf("b=%d: P(tags differ | sets differ) = %.3f, want ≈ %.3f", width, got, want)
		}
	}
}

func TestMultiBitSolvesGossip(t *testing.T) {
	for _, width := range []int{2, 4, 8} {
		st := mustState(t, 20, OneTokenPerNode(20, 6))
		mb := mustSharedBit(t, st, prand.NewSharedString(3), width)
		dyn := dyngraph.RotatingRegular(20, 4, 1, 5)
		res, err := mtm.NewEngine(dyn, mb, mtm.Config{Seed: 9}).Run()
		if err != nil {
			t.Fatalf("b=%d: %v", width, err)
		}
		if !res.Completed {
			t.Errorf("b=%d: gossip unsolved after %d rounds", width, res.Rounds)
		}
		if got := st.Potential(); got != 0 {
			t.Errorf("b=%d: final potential %d, want 0", width, got)
		}
	}
}

// TestMultiBitConnectionsAreProductive: every accepted connection joins two
// nodes with different tags, hence different sets — the invariant the
// proposal rule exists to guarantee.
func TestMultiBitConnectionsAreProductive(t *testing.T) {
	const n, k, width = 16, 8, 4
	st := mustState(t, n, OneTokenPerNode(n, k))
	shared := prand.NewSharedString(21)
	mb := mustSharedBit(t, st, shared, width)
	checker := &productivityChecker{t: t, inner: mb, st: st}
	g := graph.RandomRegular(n, 4, prand.New(2))
	res, err := mtm.NewEngine(dyngraph.NewStatic(g), checker, mtm.Config{Seed: 4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("unsolved after %d rounds", res.Rounds)
	}
	if checker.connections == 0 {
		t.Fatal("no connections observed")
	}
}

// productivityChecker asserts the different-sets invariant before
// delegating each exchange.
type productivityChecker struct {
	t           *testing.T
	inner       mtm.Protocol
	st          *State
	connections int
}

func (p *productivityChecker) TagBits() int                   { return p.inner.TagBits() }
func (p *productivityChecker) Tag(r int, u mtm.NodeID) uint64 { return p.inner.Tag(r, u) }
func (p *productivityChecker) Done() bool                     { return p.inner.Done() }

func (p *productivityChecker) Decide(r int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	return p.inner.Decide(r, u, view, rng)
}

func (p *productivityChecker) Exchange(r int, c *mtm.Conn) {
	p.connections++
	if p.st.Set(c.Initiator).Equal(p.st.Set(c.Responder)) {
		p.t.Errorf("round %d: connection %d-%d joined equal sets", r, c.Initiator, c.Responder)
	}
	p.inner.Exchange(r, c)
}
