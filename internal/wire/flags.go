package wire

import (
	"flag"
	"strings"

	"mobilegossip"
)

// TopologyFlags registers the topology flags on fs and returns the
// function that, after fs.Parse, yields the Topology they describe — the
// codec's third lowering (command line → Topology, beside the wire and
// scenario-file forms), shared by gossipsim and graphinfo so the two
// cannot offer different knobs. Numeric flags are bound straight to the
// struct's fields; the two enum names are resolved by the returned
// function, whose error lists the valid names. Rows, Cols, CliqueSize and
// PathLen deliberately have no flag: grid and barbell shapes are reachable
// from scenario files only.
func TopologyFlags(fs *flag.FlagSet) func() (mobilegossip.Topology, error) {
	var t mobilegossip.Topology
	kind := fs.String("graph", "regular", "topology or mobility model: "+strings.Join(mobilegossip.TopologyKindNames(), "|"))
	fs.IntVar(&t.Degree, "degree", 4, "degree for -graph regular")
	fs.Float64Var(&t.P, "p", 0, "edge probability for -graph gnp (0 = default 2·ln(n)/n)")
	fs.Float64Var(&t.Radius, "radius", 0, "connection radius for -graph rgg, or radio range for the mobility models (0 = default)")
	fs.IntVar(&t.Attach, "attach", 0, "edges per new vertex for -graph pa (0 = default 3)")
	fs.Float64Var(&t.Speed, "speed", 0, "per-round motion step for the mobility models (0 = default 0.01; negative = frozen)")
	fs.IntVar(&t.Pause, "pause", 0, "waypoint dwell in motion epochs for -graph waypoint (0 = default 2)")
	fs.Float64Var(&t.LevyAlpha, "levyalpha", 0, "Lévy tail exponent for -graph levy (0 = default 1.6)")
	fs.IntVar(&t.Groups, "groups", 0, "attractor count for -graph group (0 = default 4)")
	fs.Float64Var(&t.Attract, "attract", 0, "gathering intensity in [0,1] for -graph group (0 = default 0.6; negative = 0)")
	fs.IntVar(&t.Period, "period", 0, "commute cycle in rounds for -graph commuter (0 = default 64)")
	adversary := fs.String("adversary", "none", "adversarial strategy layered over -graph: "+strings.Join(mobilegossip.AdversaryKindNames(), "|"))
	fs.IntVar(&t.AdvBudget, "advbudget", 0, "max edges the adversary may cut per epoch (0 = unlimited)")
	fs.IntVar(&t.AdvParts, "advparts", 0, "adversary partition count: bridges groups / blackout regions (0 = default 4), topk k (0 = default 3)")
	fs.IntVar(&t.AdvPeriod, "advperiod", 0, "blackout/partition event cycle in epochs (0 = default 8)")
	return func() (mobilegossip.Topology, error) {
		var err error
		if t.Kind, err = mobilegossip.ParseTopologyKind(*kind); err != nil {
			return t, err
		}
		t.Adversary, err = mobilegossip.ParseAdversaryKind(*adversary)
		return t, err
	}
}
