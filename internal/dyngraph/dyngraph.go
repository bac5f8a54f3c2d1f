// Package dyngraph implements the dynamic-graph substrate of the mobile
// telephone model (§2): a dynamic graph is a sequence G₁, G₂, ... of
// connected topologies on a fixed vertex set, constrained by a stability
// factor τ ≥ 1 — at least τ rounds must pass between changes. τ = 1 allows
// arbitrary per-round change; Stable (τ = ∞) never changes.
//
// Schedules are deterministic functions of a seed, fixed (conceptually) at
// the start of the execution as the model requires, and oblivious to the
// algorithm's coin flips.
//
// Static, Regen and Sequence hold whole graphs. The schedules that produce a
// sorted edge list per epoch instead — internal/mobility, internal/adversary
// — share one Stepper (stepper.go) for everything τ means: which epoch a
// round is in, when to move the owner's state and when to ask it for a list
// (every epoch is advanced through, only the queried epoch and the one
// before it are listed — a forward jump scans only where it lands), what
// changed (a Delta, two counts, taken where the epoch's graph is loaded),
// and how a checkpointed epoch is put back.
package dyngraph

import (
	"fmt"

	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// Infinite is the τ value denoting a never-changing topology.
const Infinite = int(^uint(0) >> 1) // MaxInt

// Dynamic is a dynamic graph: the topology for each round r >= 1.
// Implementations must return connected graphs and respect Stability().
type Dynamic interface {
	// At returns the topology graph for round r (1-based).
	At(r int) *graph.Graph
	// N returns the (fixed) number of vertices.
	N() int
	// Stability returns the stability factor τ of the schedule.
	Stability() int
	// Name describes the schedule for display.
	Name() string
}

// Static wraps a single graph as a τ = ∞ dynamic graph.
type Static struct {
	g *graph.Graph
}

var _ Dynamic = (*Static)(nil)

// NewStatic returns the never-changing schedule for g.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g} }

// At implements Dynamic.
func (s *Static) At(int) *graph.Graph { return s.g }

// N implements Dynamic.
func (s *Static) N() int { return s.g.N() }

// Stability implements Dynamic.
func (s *Static) Stability() int { return Infinite }

// Name implements Dynamic.
func (s *Static) Name() string { return "static:" + s.g.Name() }

// Generator produces the topology for a given epoch from a seed. The same
// (seed, epoch) must always yield the same graph.
type Generator func(epoch int, rng *prand.RNG) *graph.Graph

// Regen re-generates the topology every τ rounds from a per-epoch RNG —
// the harshest oblivious adversary allowed by a given stability factor.
// Graphs for each epoch are cached so At is cheap on repeat calls within an
// epoch (the engine queries rounds in order).
type Regen struct {
	n     int
	tau   int
	seed  uint64
	gen   Generator
	name  string
	cache map[int]*graph.Graph
}

var _ Dynamic = (*Regen)(nil)

// NewRegen returns a schedule over n vertices that redraws the topology from
// gen at the start of every τ-round epoch.
func NewRegen(n, tau int, seed uint64, name string, gen Generator) *Regen {
	if tau < 1 {
		tau = 1
	}
	return &Regen{n: n, tau: tau, seed: seed, gen: gen, name: name,
		cache: make(map[int]*graph.Graph)}
}

// At implements Dynamic.
func (d *Regen) At(r int) *graph.Graph {
	epoch := epochOf(r, d.tau)
	if g, ok := d.cache[epoch]; ok {
		return g
	}
	g := d.gen(epoch, EpochRNG(d.seed, epoch))
	// Keep the cache bounded: epochs are visited in order, so evict all but
	// a recent window.
	if len(d.cache) > 8 {
		for k := range d.cache {
			if k < epoch-4 {
				delete(d.cache, k)
			}
		}
	}
	d.cache[epoch] = g
	return g
}

// EpochRNG returns the generator Regen hands its Generator for epoch, a
// pure function of (seed, epoch): a graph built from it ahead of the
// schedule is the graph At builds for that epoch, and Keep can hand it over.
func EpochRNG(seed uint64, epoch int) *prand.RNG {
	return prand.New(prand.Mix64(seed ^ uint64(epoch)*0x9e3779b97f4a7c15))
}

// Keep caches g as epoch's graph, so At does not rebuild it. g must be the
// graph gen builds from EpochRNG(seed, epoch).
func (d *Regen) Keep(epoch int, g *graph.Graph) { d.cache[epoch] = g }

// N implements Dynamic.
func (d *Regen) N() int { return d.n }

// Stability implements Dynamic.
func (d *Regen) Stability() int { return d.tau }

// Name implements Dynamic.
func (d *Regen) Name() string { return fmt.Sprintf("regen(τ=%d):%s", d.tau, d.name) }

// RotatingRing returns a τ-stable schedule whose epoch-e topology is a ring
// over a fresh random permutation of the vertices: constant degree, worst
// case expansion, completely re-wired each epoch.
func RotatingRing(n, tau int, seed uint64) *Regen {
	return NewRegen(n, tau, seed, "rotating-ring",
		func(_ int, rng *prand.RNG) *graph.Graph {
			perm := rng.Perm(n)
			b := graph.NewBuilderCap(n, n)
			for i := 0; i < n; i++ {
				_ = b.AddEdge(perm[i], perm[(i+1)%n])
			}
			return b.Build("permring")
		})
}

// RotatingRegular returns a τ-stable schedule of fresh random d-regular
// graphs — dynamic but well-expanding topologies.
func RotatingRegular(n, d, tau int, seed uint64) *Regen {
	return NewRegen(n, tau, seed, fmt.Sprintf("regular(d=%d)", d),
		func(_ int, rng *prand.RNG) *graph.Graph {
			return graph.RandomRegular(n, d, rng)
		})
}

// Alpha estimates the vertex expansion of the dynamic graph: the minimum
// estimate over the first `epochs` epochs (§2 defines dynamic α as the min
// over all rounds). For static schedules one epoch suffices.
func Alpha(d Dynamic, epochs, samples int, rng *prand.RNG) float64 {
	if d.Stability() == Infinite {
		epochs = 1
	}
	best := 2.0
	for e := 0; e < epochs; e++ {
		a := d.At(firstRound(e, d.Stability())).EstimateVertexExpansion(samples, rng)
		if a < best {
			best = a
		}
	}
	return best
}

// MaxDegree returns the maximum degree over the first `epochs` epochs.
func MaxDegree(d Dynamic, epochs int) int {
	if d.Stability() == Infinite {
		epochs = 1
	}
	dd := 0
	for e := 0; e < epochs; e++ {
		if v := d.At(firstRound(e, d.Stability())).MaxDegree(); v > dd {
			dd = v
		}
	}
	return dd
}
