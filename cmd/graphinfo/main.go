// Command graphinfo prints the structural properties the paper's bounds
// are parameterized by — n, max degree Δ, diameter D, and vertex expansion
// α — for the built-in topology families, and, for dynamic schedules, the
// per-round edge-churn statistics (edges added/removed per change, the
// effective stability factor actually exhibited) that the static numbers
// cannot capture.
//
// Usage:
//
//	graphinfo -graph doublestar -n 32
//	graphinfo -graph regular -degree 4 -n 16,32,64,128
//	graphinfo -all -n 24
//	graphinfo -graph waypoint -n 256 -tau 1 -speed 0.02 -rounds 64
//	graphinfo -graph regular -n 64 -tau 4 -rounds 64
//	graphinfo -graph regular -n 128 -tau 1 -adversary bridges -rounds 64
//
// The topology flags are gossipsim's own (one shared binder,
// wire.TopologyFlags), so every family knob either tool accepts, both do.
//
// For n ≤ 22 the vertex expansion is computed exactly by subset
// enumeration; above that a randomized local-search estimate (an upper
// bound on α) is reported and marked "~". With -tau ≥ 1 a second table
// follows: the schedule is replayed for -rounds rounds and its churn is
// tallied — through dyngraph.DeltaFor for delta-capable schedules (the
// mobility models), by graph diffing for the regenerating ones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"mobilegossip"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	topology := wire.TopologyFlags(fs)
	var (
		ns      = fs.String("n", "64", "comma-separated network sizes")
		seed    = fs.Uint64("seed", 1, "seed for randomized families and α estimation")
		all     = fs.Bool("all", false, "print every family at the first -n size")
		samples = fs.Int("samples", 2000, "samples for the α estimate on large graphs")
		tau     = fs.Int("tau", 0, "stability factor; >= 1 adds the dynamic churn table")
		rounds  = fs.Int("rounds", 64, "rounds to replay for the churn table")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	sizes, err := parseSizes(*ns)
	if err != nil {
		return err
	}

	topo, err := topology()
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tn\tedges\tΔ\tD\tα\tlog(n)/α")

	type churnRow struct {
		name string
		n    int
		c    dyngraph.Churn
	}
	var churns []churnRow

	emit := func(topo mobilegossip.Topology, n int) error {
		dyn, err := topo.Build(n, *tau, *seed)
		if err != nil {
			return err
		}
		g := dyn.At(1)
		if err := printRow(tw, g, *samples, *seed); err != nil {
			return err
		}
		if *tau >= 1 && *rounds >= 2 {
			// Replay a fresh schedule for the churn tally: MeasureChurn
			// advances stateful schedules, so it gets its own instance.
			cdyn, err := topo.Build(n, *tau, *seed)
			if err != nil {
				return err
			}
			churns = append(churns, churnRow{g.Name(), n, dyngraph.MeasureChurn(cdyn, *rounds)})
		}
		return nil
	}

	if *all {
		for _, kind := range []mobilegossip.TopologyKind{
			mobilegossip.Cycle, mobilegossip.Path, mobilegossip.Complete,
			mobilegossip.Star, mobilegossip.DoubleStar, mobilegossip.Grid,
			mobilegossip.GNP, mobilegossip.RandomRegular, mobilegossip.Barbell,
		} {
			topo.Kind = kind
			if err := emit(topo, sizes[0]); err != nil {
				fmt.Fprintf(tw, "%s\t%d\t-\t-\t-\t%v\t-\n", kind, sizes[0], err)
			}
		}
	} else {
		for _, n := range sizes {
			if err := emit(topo, n); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(churns) > 0 {
		fmt.Printf("\nchurn over rounds 1..%d (τ=%d):\n", *rounds, *tau)
		ctw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ctw, "graph\tn\tchanges\t+edges/chg\t-edges/chg\tτ_eff\tedges[min,max]")
		for _, cr := range churns {
			c := cr.c
			addPer, remPer := 0.0, 0.0
			if c.Changes > 0 {
				addPer = float64(c.Added) / float64(c.Changes)
				remPer = float64(c.Removed) / float64(c.Changes)
			}
			fmt.Fprintf(ctw, "%s\t%d\t%d\t%.1f\t%.1f\t%s\t[%d,%d]\n",
				cr.name, cr.n, c.Changes, addPer, remPer,
				tauEffString(c.EffectiveTau), c.MinEdges, c.MaxEdges)
		}
		if err := ctw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func tauEffString(tau int) string {
	if tau == dyngraph.Infinite {
		return "∞"
	}
	return strconv.Itoa(tau)
}

func printRow(tw *tabwriter.Writer, g *graph.Graph, samples int, seed uint64) error {
	diam, err := g.Diameter()
	if err != nil {
		return err
	}
	alpha, exact := g.ExactVertexExpansion()
	marker := ""
	if !exact {
		alpha = g.EstimateVertexExpansion(samples, prand.New(prand.Mix64(seed^0xd1b54a32d192ed03)))
		marker = "~"
	}
	logOverAlpha := 0.0
	if alpha > 0 {
		logOverAlpha = math.Log2(float64(g.N())) / alpha
	}
	fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s%.4f\t%.1f\n",
		g.Name(), g.N(), g.NumEdges(), g.MaxDegree(), diam, marker, alpha, logOverAlpha)
	return nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}
