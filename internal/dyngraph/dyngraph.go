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
// Implementations must return connected graphs and change them at most
// every τ rounds, their stability factor.
type Dynamic interface {
	// At returns the topology graph for round r (1-based).
	At(r int) *graph.Graph
	// N returns the (fixed) number of vertices.
	N() int
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

// Name implements Dynamic.
func (s *Static) Name() string { return "static:" + s.g.Name() }

// Generator produces the topology for a given epoch from a seed. The same
// (seed, epoch) must always yield the same graph.
type Generator func(epoch int, rng *prand.RNG) *graph.Graph

// Regen re-generates the topology every τ rounds from a per-epoch RNG —
// the harshest oblivious adversary allowed by a given stability factor.
// The last epoch's graph is kept, so At is cheap on repeat calls within an
// epoch (every caller queries rounds in order); any other epoch is rebuilt.
type Regen struct {
	n     int
	tau   int
	seed  uint64
	gen   Generator
	name  string
	epoch int // the epoch g belongs to; -1 before the first
	g     *graph.Graph
}

var _ Dynamic = (*Regen)(nil)

// NewRegen returns a schedule over n vertices that redraws the topology from
// gen at the start of every τ-round epoch.
func NewRegen(n, tau int, seed uint64, name string, gen Generator) *Regen {
	if tau < 1 {
		tau = 1
	}
	return &Regen{n: n, tau: tau, seed: seed, gen: gen, name: name, epoch: -1}
}

// At implements Dynamic.
func (d *Regen) At(r int) *graph.Graph {
	if epoch := epochOf(r, d.tau); epoch != d.epoch {
		d.Keep(epoch, d.gen(epoch, EpochRNG(d.seed, epoch)))
	}
	return d.g
}

// EpochRNG returns the generator Regen hands its Generator for epoch, a
// pure function of (seed, epoch): a graph built from it ahead of the
// schedule is the graph At builds for that epoch, and Keep can hand it over.
func EpochRNG(seed uint64, epoch int) *prand.RNG {
	return prand.New(prand.Mix64(seed ^ uint64(epoch)*0x9e3779b97f4a7c15))
}

// Keep holds g as epoch's graph, so At does not rebuild it. g must be the
// graph gen builds from EpochRNG(seed, epoch).
func (d *Regen) Keep(epoch int, g *graph.Graph) { d.epoch, d.g = epoch, g }

// N implements Dynamic.
func (d *Regen) N() int { return d.n }

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
