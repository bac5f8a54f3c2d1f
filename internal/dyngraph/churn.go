package dyngraph

import (
	"fmt"

	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// Sequence is an explicit dynamic graph: a pre-built chain of per-epoch
// topologies, each held for τ rounds, clamping at the last graph once the
// chain is exhausted (changes simply stop, which every stability factor
// permits). The paper fixes the dynamic graph at the beginning of the
// execution (§2); Sequence is that definition made literal.
type Sequence struct {
	graphs []*graph.Graph
	tau    int
	name   string
}

var _ Dynamic = (*Sequence)(nil)

// NewSequence builds a τ-stable schedule from an explicit graph chain. All
// graphs must be connected and share the same vertex count.
func NewSequence(tau int, name string, graphs ...*graph.Graph) (*Sequence, error) {
	if tau < 1 {
		return nil, fmt.Errorf("dyngraph: sequence stability %d < 1", tau)
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("dyngraph: empty sequence")
	}
	n := graphs[0].N()
	for i, g := range graphs {
		if g.N() != n {
			return nil, fmt.Errorf("dyngraph: sequence graph %d has %d vertices, want %d", i, g.N(), n)
		}
		if !g.Connected() {
			return nil, fmt.Errorf("dyngraph: sequence graph %d (%s) is disconnected", i, g.Name())
		}
	}
	return &Sequence{graphs: graphs, tau: tau, name: name}, nil
}

// At implements Dynamic.
func (s *Sequence) At(r int) *graph.Graph {
	epoch := epochOf(r, s.tau)
	if epoch >= len(s.graphs) {
		epoch = len(s.graphs) - 1
	}
	return s.graphs[epoch]
}

// N implements Dynamic.
func (s *Sequence) N() int { return s.graphs[0].N() }

// Name implements Dynamic.
func (s *Sequence) Name() string {
	return fmt.Sprintf("sequence(τ=%d,len=%d):%s", s.tau, len(s.graphs), s.name)
}

// GradualChurn builds a Sequence modelling a slowly reshuffling crowd: a
// fixed ring backbone (guaranteeing per-round connectivity) plus n chord
// edges, of which a `rewire` fraction (0..1) is re-drawn uniformly between
// consecutive epochs. rewire = 0 is a static graph; rewire = 1 redraws
// every chord each epoch (still gentler than the Rotating* schedules,
// which also re-wire the backbone). epochs bounds the chain length; after
// that the topology freezes.
//
// This schedule interpolates between the paper's two extremes (τ = ∞ and
// adversarial τ = 1 re-wiring) and backs the churn-sensitivity ablation
// (experiment E18).
func GradualChurn(n, tau, epochs int, rewire float64, seed uint64) (*Sequence, error) {
	if n < 3 {
		return nil, fmt.Errorf("dyngraph: gradual churn needs n >= 3, got %d", n)
	}
	if epochs < 1 {
		return nil, fmt.Errorf("dyngraph: gradual churn needs epochs >= 1, got %d", epochs)
	}
	if rewire < 0 || rewire > 1 {
		return nil, fmt.Errorf("dyngraph: rewire fraction %v outside [0, 1]", rewire)
	}
	rng := prand.New(prand.Mix64(seed ^ 0x8e5b_4dbf_16c1_a3f7))

	// Chords are stored as endpoint pairs; each epoch re-draws a rewire
	// fraction of them.
	chords := make([][2]int, n)
	for i := range chords {
		chords[i] = randomChord(n, rng)
	}

	build := func(epoch int) *graph.Graph {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			_ = b.AddEdge(u, (u+1)%n) // backbone ring
		}
		for _, c := range chords {
			_ = b.AddEdge(c[0], c[1])
		}
		return b.Build(fmt.Sprintf("churn(e=%d)", epoch))
	}

	graphs := make([]*graph.Graph, 0, epochs)
	graphs = append(graphs, build(0))
	for e := 1; e < epochs; e++ {
		for i := range chords {
			if rng.Float64() < rewire {
				chords[i] = randomChord(n, rng)
			}
		}
		graphs = append(graphs, build(e))
	}
	name := fmt.Sprintf("gradual-churn(n=%d,rewire=%.2f)", n, rewire)
	return NewSequence(tau, name, graphs...)
}

// randomChord draws a uniform non-self-loop, non-backbone vertex pair.
func randomChord(n int, rng *prand.RNG) [2]int {
	for {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		// Skip backbone edges so chords always add capacity.
		d := u - v
		if d < 0 {
			d = -d
		}
		if d == 1 || d == n-1 {
			continue
		}
		return [2]int{u, v}
	}
}
