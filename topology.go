package mobilegossip

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mobilegossip/internal/adversary"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mobility"
	"mobilegossip/internal/prand"
)

// TopologyKind enumerates the built-in topology families.
type TopologyKind int

// Topology families. Each corresponds to a generator in internal/graph;
// DoubleStar is the paper's Ω(Δ²) lower-bound construction, RandomRegular
// its "well-connected" (constant-α) regime, Cycle its worst-α regime.
const (
	Cycle TopologyKind = iota + 1
	Path
	Complete
	Star
	DoubleStar
	Grid
	Hypercube
	GNP
	RandomRegular
	Barbell
	// RandomGeometric is RGG(n, r): uniform points in the unit square joined
	// within distance r — smartphone crowds with a fixed radio range. Scales
	// to millions of nodes (cell-grid construction).
	RandomGeometric
	// PreferentialAttachment is the Barabási–Albert contact-network model:
	// heavy-tailed degrees, connected by construction, O(n·m) build.
	PreferentialAttachment
	// MobileWaypoint through MobileCommuter are the mobility-driven
	// topologies (internal/mobility): phones move through the unit square
	// under a continuous-space motion model, and each round's topology is
	// their unit-disk proximity graph (connected by repair), changing every
	// Tau rounds via incremental edge deltas. Tau = 0 freezes the initial
	// placement. Parameterized by Radius, Speed, and the model-specific
	// knobs below.
	MobileWaypoint // random-waypoint walkers (Speed, Pause)
	MobileLevy     // Lévy flights: heavy-tailed excursions (Speed, LevyAlpha)
	MobileGroup    // gathering around moving attractors (Groups, Attract, Speed)
	MobileCommuter // home↔work schedules with churn bursts (Speed, Period)
)

// kindNames is the topology families' name table, indexed by value.
var kindNames = [...]string{
	Cycle: "cycle", Path: "path", Complete: "complete", Star: "star",
	DoubleStar: "doublestar", Grid: "grid", Hypercube: "hypercube",
	GNP: "gnp", RandomRegular: "regular", Barbell: "barbell",
	RandomGeometric: "rgg", PreferentialAttachment: "pa",
	MobileWaypoint: "waypoint", MobileLevy: "levy",
	MobileGroup: "group", MobileCommuter: "commuter",
}

// TopologyKinds enumerates every built-in topology family, in declaration
// order (the static generators first, then the mobility models). CLIs and
// error messages use it so the list of valid names has a single source of
// truth.
func TopologyKinds() []TopologyKind { return enumValues(kindNames[:], Cycle) }

// TopologyKindNames returns the parseable names of TopologyKinds, in order.
func TopologyKindNames() []string { return slices.Clone(kindNames[Cycle:]) }

// String returns the family name.
func (k TopologyKind) String() string { return enumName(kindNames[:], k, "TopologyKind") }

// ParseTopologyKind resolves a family name (as printed by String).
func ParseTopologyKind(s string) (TopologyKind, error) {
	if k, ok := parseEnum[TopologyKind](kindNames[:], s); ok {
		return k, nil
	}
	return 0, fmt.Errorf("mobilegossip: unknown topology %q (valid: %s)",
		s, strings.Join(TopologyKindNames(), ", "))
}

// Topology specifies a topology family plus its family-specific knobs.
type Topology struct {
	Kind TopologyKind
	// Degree parameterizes RandomRegular (default 4).
	Degree int
	// P parameterizes GNP (default 2·ln(n)/n at build time if zero).
	P float64
	// Rows/Cols parameterize Grid (defaults make it near-square).
	Rows, Cols int
	// CliqueSize and PathLen parameterize Barbell.
	CliqueSize, PathLen int
	// Radius parameterizes RandomGeometric (default 1.5·√(ln n/(πn)), just
	// above the connectivity threshold) and the mobility kinds' radio range
	// (default mobility.DefaultRadius: mean degree ≈ 8).
	Radius float64
	// Attach parameterizes PreferentialAttachment: edges added per new
	// vertex (default 3).
	Attach int
	// Speed is the per-round motion step of the mobility kinds, as a
	// fraction of the unit square (default 0.01). 0 is a valid (frozen)
	// speed: set it negative to mean exactly zero.
	Speed float64
	// Pause is MobileWaypoint's dwell at each destination, in motion
	// epochs (default 2).
	Pause int
	// LevyAlpha is MobileLevy's Pareto tail exponent (default 1.6).
	LevyAlpha float64
	// Groups is MobileGroup's attractor count (default 4).
	Groups int
	// Attract is MobileGroup's gathering intensity in [0, 1] (default 0.6).
	// Negative means exactly zero.
	Attract float64
	// Period is MobileCommuter's commute cycle length in rounds
	// (default 64).
	Period int
	// Adversary layers an adversarial edge-cutting strategy (see
	// AdversaryKind) over the base topology — any Kind, including the
	// mobility models. The adversary perturbs the edge list at every epoch
	// boundary (per-round for Tau = 1, once-and-frozen for Tau = 0), with
	// connectivity repaired by relay bridges. AdvNone disables it.
	Adversary AdversaryKind
	// AdvBudget caps the edges the adversary may cut per epoch
	// (0 = unlimited).
	AdvBudget int
	// AdvParts is the partition count of AdvBridges groups and AdvBlackout
	// regions (default 4), and the k of AdvTopK (default 3).
	AdvParts int
	// AdvPeriod is the event cycle length, in epochs, of AdvBlackout and
	// AdvPartition (default 8).
	AdvPeriod int
}

// buildStatic instantiates the topology on n vertices.
func (t Topology) buildStatic(n int, rng *prand.RNG) (*graph.Graph, error) {
	switch t.Kind {
	case Cycle:
		return graph.Cycle(n), nil
	case Path:
		return graph.Path(n), nil
	case Complete:
		return graph.Complete(n), nil
	case Star:
		return graph.Star(n), nil
	case DoubleStar:
		return graph.DoubleStar(n), nil
	case Grid:
		rows, cols := t.Rows, t.Cols
		if rows <= 0 || cols <= 0 {
			// Most-square factorization: the largest divisor ≤ √n.
			rows = 1
			for r := 2; r*r <= n; r++ {
				if n%r == 0 {
					rows = r
				}
			}
			cols = n / rows
		}
		if rows*cols != n {
			return nil, fmt.Errorf("mobilegossip: grid %dx%d does not cover n=%d", rows, cols, n)
		}
		return graph.Grid(rows, cols), nil
	case Hypercube:
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		if 1<<uint(d) != n {
			return nil, fmt.Errorf("mobilegossip: hypercube needs n to be a power of two, got %d", n)
		}
		return graph.Hypercube(d), nil
	case GNP:
		p := t.P
		if p <= 0 {
			p = gnpDefaultP(n)
		}
		return graph.GNP(n, p, rng), nil
	case RandomRegular:
		d := t.Degree
		if d <= 0 {
			d = 4
		}
		return graph.RandomRegular(n, d, rng), nil
	case RandomGeometric:
		r := t.Radius
		if r <= 0 {
			r = rggDefaultRadius(n)
		}
		return graph.RandomGeometric(n, r, rng), nil
	case PreferentialAttachment:
		m := t.Attach
		if m <= 0 {
			m = 3
		}
		return graph.PreferentialAttachment(n, m, rng), nil
	case Barbell:
		m := t.CliqueSize
		pl := t.PathLen
		if m <= 0 {
			m = n / 2
		}
		if pl <= 0 {
			pl = n - 2*m + 1
		}
		g := graph.Barbell(m, pl)
		if g.N() != n {
			return nil, fmt.Errorf("mobilegossip: barbell(%d,%d) has %d vertices, want %d", m, pl, g.N(), n)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("mobilegossip: unknown topology kind %v", t.Kind)
	}
}

// rggDefaultRadius is 1.5·√(ln n/(πn)): slightly above the RGG
// connectivity threshold, keeping average degree ≈ 2.25·ln n.
func rggDefaultRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return 1.5 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
}

func gnpDefaultP(n int) float64 {
	if n < 2 {
		return 1
	}
	// 2·ln(n)/n: comfortably above the connectivity threshold.
	p := 2 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	return p
}

// mobilityModel maps the mobility kinds onto their internal/mobility motion
// model, applying the documented defaults (0 → default, negative → zero for
// the float knobs so that "exactly zero" stays expressible).
func (t Topology) mobilityModel() (mobility.Model, bool) {
	speed := zeroableDefault(t.Speed, 0.01)
	switch t.Kind {
	case MobileWaypoint:
		pause := t.Pause
		if pause <= 0 {
			pause = 2
		}
		return mobility.Waypoint(speed, pause), true
	case MobileLevy:
		alpha := t.LevyAlpha
		if alpha <= 0 {
			alpha = 1.6
		}
		return mobility.Levy(speed, alpha), true
	case MobileGroup:
		g := t.Groups
		if g <= 0 {
			g = 4
		}
		return mobility.Group(g, zeroableDefault(t.Attract, 0.6), speed), true
	case MobileCommuter:
		period := t.Period
		if period <= 0 {
			period = 64
		}
		return mobility.Commuter(speed, period), true
	}
	return nil, false
}

// zeroableDefault resolves a float knob where 0 means "default" but the
// zero value itself must stay reachable: negative inputs mean exactly 0.
func zeroableDefault(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

// Build instantiates the dynamic schedule: tau <= 0 (or Static) yields a
// never-changing topology; tau >= 1 redraws the same family (over freshly
// permuted labels where the family is deterministic) every tau rounds —
// the harshest oblivious adversary the stability factor permits. The
// mobility kinds instead move a crowd continuously and change the topology
// by edge deltas (dyngraph.DeltaDynamic); for them tau <= 0 freezes the
// initial placement.
//
// When Topology.Adversary is set, the built schedule is wrapped in an
// internal/adversary engine that perturbs every epoch's edge list under
// the strategy (for tau <= 0: perturbs the initial topology once and
// freezes it).
func (t Topology) Build(n, tau int, seed uint64) (dyngraph.Dynamic, error) {
	base, err := t.buildSchedule(n, tau, seed)
	if err != nil || t.Adversary == AdvNone {
		return base, err
	}
	if t.AdvBudget < 0 {
		// The engine treats budget <= 0 as unlimited; a negative value is
		// therefore always a caller mistake and must not silently select
		// the maximally destructive adversary.
		return nil, fmt.Errorf("mobilegossip: AdvBudget %d is negative (0 means unlimited)", t.AdvBudget)
	}
	strat, err := t.strategy()
	if err != nil {
		return nil, err
	}
	return adversary.New(base, strat, adversary.Options{
		Tau:    tau,
		Seed:   prand.Mix64(seed ^ 0x30644e72e131a029),
		Budget: t.AdvBudget,
	}), nil
}

// buildSchedule is Build without the adversary layer.
func (t Topology) buildSchedule(n, tau int, seed uint64) (dyngraph.Dynamic, error) {
	if m, ok := t.mobilityModel(); ok {
		return mobility.New(m, mobility.Options{
			N: n, Tau: tau, Radius: t.Radius, Seed: seed,
		}), nil
	}
	if tau <= 0 {
		g, err := t.buildStatic(n, prand.New(prand.Mix64(seed^0xa24baed4963ee407)))
		if err != nil {
			return nil, err
		}
		if !g.Connected() {
			return nil, fmt.Errorf("mobilegossip: %s on n=%d is disconnected", t.Kind, n)
		}
		return dyngraph.NewStatic(g), nil
	}
	// Build fails fast on a family that cannot be built, by building epoch
	// 0's graph exactly as the schedule would and keeping it there.
	rng0 := dyngraph.EpochRNG(seed, 0)
	g0, err := t.buildStatic(n, rng0)
	if err != nil {
		return nil, err
	}
	spec := t // copy for the closure
	gen := func(_ int, erng *prand.RNG) *graph.Graph {
		g, err := spec.buildStatic(n, erng)
		if err != nil {
			// Cannot happen: epoch 0 was built above with identical inputs
			// except the RNG, and no generator fails RNG-dependently.
			panic(err)
		}
		// The random permutation supplies the per-epoch label churn.
		return relabel(g, erng)
	}
	sched := dyngraph.NewRegen(n, tau, seed, t.Kind.String(), gen)
	sched.Keep(0, relabel(g0, rng0))
	return sched, nil
}

// relabel permutes vertex labels so deterministic families still churn.
// Graph.Relabel rebuilds the CSR arrays in place of the old
// Edges-and-rebuild round trip (same result, no per-edge overhead).
func relabel(g *graph.Graph, rng *prand.RNG) *graph.Graph {
	perm := rng.Perm(g.N())
	return g.Relabel(perm, g.Name()+"+perm")
}
