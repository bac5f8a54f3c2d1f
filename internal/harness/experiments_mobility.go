package harness

// Mobility experiments E22–E24: the dynamic-graph abstraction made
// physical. Where E6/E16/E18 sweep abstract adversaries (τ, rewire
// fraction), these sweep the knobs of real smartphone motion — node speed,
// crowd density, gathering intensity — over internal/mobility's unit-disk
// proximity schedules, and report the churn the motion actually induces
// next to the gossip cost it causes. See DESIGN.md §8.

import (
	"fmt"

	"mobilegossip"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/mobility"
	"mobilegossip/internal/stats"
)

func init() {
	register(Experiment{ID: "E22", Title: "Gossip vs node speed (random-waypoint motion)", Exhibit: "§2 mobility instantiation; E6's stability-vs-tags tradeoff under physical motion", Run: runE22})
	register(Experiment{ID: "E23", Title: "Gossip vs crowd density (radio range sweep)", Exhibit: "§2 proximity graphs; 1/α terms under physical density", Run: runE23})
	register(Experiment{ID: "E24", Title: "Gossip vs gathering intensity (group motion)", Exhibit: "§1 scenarios (concerts/gatherings); low-α regime under motion", Run: runE24})
}

// churnFor replays a fresh instance of the topology's schedule and tallies
// its churn — sequential and seed-deterministic, so the tables stay
// byte-identical at any worker count.
func churnFor(t mobilegossip.Topology, n, tau, rounds int, o Options) (dyngraph.Churn, error) {
	dyn, err := t.Build(n, tau, o.Seed+1315)
	if err != nil {
		return dyngraph.Churn{}, err
	}
	return dyngraph.MeasureChurn(dyn, rounds), nil
}

func tauEff(c dyngraph.Churn) string {
	if c.EffectiveTau == dyngraph.Infinite {
		return "∞"
	}
	return fmtF(float64(c.EffectiveTau))
}

func churnPerRound(c dyngraph.Churn) float64 {
	if c.Rounds <= 1 {
		return 0
	}
	return float64(c.Added+c.Removed) / float64(c.Rounds-1)
}

// runE22: sweep the walking speed of a random-waypoint crowd and re-measure
// the b = 0 vs b = 1 gap of E6 under physical motion. The paper's shape:
// SharedBit's O(kn) bound is motion-independent (no reliance on edge
// persistence), BlindMatch pays for blind dials at every speed, and
// SimSharedBit adds a leader-election term that motion (lower effective
// stability) inflates.
func runE22(o Options) (*Table, error) {
	n, k := 96, 8
	if o.Quick {
		n = 48
	}
	// Speed 0 (frozen crowd) is expressed as a negative knob, since a zero
	// Topology.Speed selects the default.
	speeds := []float64{-1, 0.005, 0.01, 0.02, 0.05}
	t := &Table{
		ID: "E22",
		Caption: fmt.Sprintf(
			"Gossip under random-waypoint motion (n=%d, k=%d, τ=1): rounds vs node speed", n, k),
		Columns: []string{"speed", "churn/round", "τ_eff", "blindmatch (b=0)", "sharedbit (b=1)", "simsharedbit"},
	}
	algs := []mobilegossip.Algorithm{
		mobilegossip.AlgBlindMatch, mobilegossip.AlgSharedBit, mobilegossip.AlgSimSharedBit,
	}
	var cfgs []mobilegossip.Config
	topoFor := func(speed float64) mobilegossip.Topology {
		return mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: speed}
	}
	for _, sp := range speeds {
		for _, alg := range algs {
			cfgs = append(cfgs, mobilegossip.Config{
				Algorithm: alg, N: n, K: k, Topology: topoFor(sp), Tau: 1,
			})
		}
	}
	pts, err := sweep(o, cfgs)
	if err != nil {
		return nil, err
	}
	var frozen, fastest float64
	for i, sp := range speeds {
		c, err := churnFor(topoFor(sp), n, 1, 48, o)
		if err != nil {
			return nil, err
		}
		shown := sp
		if sp < 0 {
			shown = 0
		}
		b1 := pts[3*i+1].MeanRounds
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", shown), fmtF(churnPerRound(c)), tauEff(c),
			fmtF(pts[3*i].MeanRounds), fmtF(b1), fmtF(pts[3*i+2].MeanRounds),
		})
		if i == 0 {
			frozen = b1
		}
		fastest = b1
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("motion helps: a frozen crowd is the worst case (one fixed low-α geometric "+
			"graph) and walking mixes the neighborhoods — sharedbit speeds up %.2fx from frozen "+
			"to the fastest walkers, the physical analogue of E18's churn-insensitivity (its "+
			"O(kn) analysis never leans on edge persistence)", stats.Ratio(fastest, frozen)),
		"the E6 stability-vs-tags tradeoff re-measured physically: at every speed the single "+
			"advertised bit (b=1 vs b=0) is worth more than any motion regime costs")
	return t, nil
}

// runE23: sweep the radio range (crowd density). Density buys expansion:
// the 1/α terms shrink and more vertex-disjoint connections fit per round,
// so all algorithms speed up — at the price of quadratically more churn to
// maintain.
func runE23(o Options) (*Table, error) {
	n, k := 96, 8
	if o.Quick {
		n = 48
	}
	mults := []float64{0.7, 1.0, 1.4, 2.0}
	t := &Table{
		ID: "E23",
		Caption: fmt.Sprintf(
			"Gossip under waypoint motion (n=%d, k=%d, τ=1, speed 0.01): rounds vs radio range", n, k),
		Columns: []string{"radius×", "mean deg", "churn/round", "sharedbit", "simsharedbit"},
	}
	defaultRadius := mobility.DefaultRadius(n)
	topoFor := func(mult float64) mobilegossip.Topology {
		return mobilegossip.Topology{
			Kind: mobilegossip.MobileWaypoint, Speed: 0.01, Radius: defaultRadius * mult,
		}
	}
	var cfgs []mobilegossip.Config
	for _, mu := range mults {
		for _, alg := range []mobilegossip.Algorithm{mobilegossip.AlgSharedBit, mobilegossip.AlgSimSharedBit} {
			cfgs = append(cfgs, mobilegossip.Config{
				Algorithm: alg, N: n, K: k, Topology: topoFor(mu), Tau: 1,
			})
		}
	}
	pts, err := sweep(o, cfgs)
	if err != nil {
		return nil, err
	}
	var sparse, dense float64
	for i, mu := range mults {
		c, err := churnFor(topoFor(mu), n, 1, 48, o)
		if err != nil {
			return nil, err
		}
		meanDeg := float64(c.MinEdges+c.MaxEdges) / float64(n) // 2·(avg of min/max edges)/n
		sb := pts[2*i].MeanRounds
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mu), fmtF(meanDeg), fmtF(churnPerRound(c)),
			fmtF(sb), fmtF(pts[2*i+1].MeanRounds),
		})
		if i == 0 {
			sparse = sb
		}
		dense = sb
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"densifying the crowd 0.7×→2.0× radius cuts sharedbit %.2fx: higher α admits more "+
			"productive vertex-disjoint connections per round (the 1/α shape of the paper's "+
			"bounds), while the churn to maintain the denser unit-disk graph keeps growing",
		stats.Ratio(dense, sparse)))
	return t, nil
}

// runE24: sweep the gathering intensity of group motion. Gathering is the
// paper's concert scenario taken to its limit: dense clusters around the
// attractors joined by sparse repaired bridges — vertex expansion
// collapses, and the 1/α-sensitive algorithms pay for it while SharedBit's
// O(kn) term degrades only through the bottleneck bridges.
func runE24(o Options) (*Table, error) {
	n, k := 96, 8
	if o.Quick {
		n = 48
	}
	attracts := []float64{-1, 0.3, 0.6, 0.9}
	t := &Table{
		ID: "E24",
		Caption: fmt.Sprintf(
			"Gossip under group/gathering motion (n=%d, k=%d, τ=1, 4 attractors): rounds vs gathering intensity", n, k),
		Columns: []string{"attract", "churn/round", "edges[min,max]", "sharedbit", "simsharedbit"},
	}
	topoFor := func(a float64) mobilegossip.Topology {
		return mobilegossip.Topology{Kind: mobilegossip.MobileGroup, Speed: 0.02, Attract: a}
	}
	var cfgs []mobilegossip.Config
	for _, a := range attracts {
		for _, alg := range []mobilegossip.Algorithm{mobilegossip.AlgSharedBit, mobilegossip.AlgSimSharedBit} {
			cfgs = append(cfgs, mobilegossip.Config{
				Algorithm: alg, N: n, K: k, Topology: topoFor(a), Tau: 1,
			})
		}
	}
	pts, err := sweep(o, cfgs)
	if err != nil {
		return nil, err
	}
	var loose, tight float64
	for i, a := range attracts {
		c, err := churnFor(topoFor(a), n, 1, 48, o)
		if err != nil {
			return nil, err
		}
		shown := a
		if a < 0 {
			shown = 0
		}
		sb := pts[2*i].MeanRounds
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", shown), fmtF(churnPerRound(c)),
			fmt.Sprintf("[%d,%d]", c.MinEdges, c.MaxEdges),
			fmtF(sb), fmtF(pts[2*i+1].MeanRounds),
		})
		if i == 0 {
			loose = sb
		}
		tight = sb
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"gathering densifies the contact graph (edge count grows several-fold as the clusters "+
			"tighten) and sharedbit rides the density %.2fx faster from a diffuse crowd to "+
			"attract 0.9; the bridge bottleneck shows up in simsharedbit at the tightest "+
			"gathering, where leader election must cross the few repaired inter-cluster links "+
			"— the physically induced low-α regime E6 reached only with adversarial families",
		stats.Ratio(tight, loose)))
	return t, nil
}
