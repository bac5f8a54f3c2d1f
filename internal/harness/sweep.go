package harness

import (
	"fmt"

	"mobilegossip"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/runner"
)

// subRunnerCfg splits the base seed by a per-grid label, so an experiment
// that issues several Monte-Carlo grids draws disjoint seed streams for
// each.
func subRunnerCfg(o Options, label uint64) runner.Config {
	return runner.Config{Seed: prand.StreamSeed(o.Seed, label)}
}

// point is one grid point's trial means.
type point struct {
	MeanRounds       float64
	MeanEdgesAdded   float64
	MeanEdgesRemoved float64
}

// sweep runs every config trials(o) times on the runner's pool, so cell
// (p, t) replays as one mobilegossip.Run at
// mobilegossip.SweepSeed(o.Seed, p*trials(o)+t). An unsolved run is an
// error: every table row is a mean over solved runs.
func sweep(o Options, cfgs []mobilegossip.Config) ([]point, error) {
	grid, err := runner.MapGrid(runner.Config{Seed: o.Seed}, len(cfgs), trials(o),
		func(p, t int, seed uint64) (mobilegossip.Result, error) {
			cfg := cfgs[p]
			cfg.Seed = seed
			res, err := mobilegossip.Run(cfg)
			if err != nil {
				return res, fmt.Errorf("point %d trial %d: %w", p, t, err)
			}
			if !res.Solved {
				return res, fmt.Errorf("harness: %v on %s unsolved after %d rounds",
					cfg.Algorithm, res.Topology, res.Rounds)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	points := make([]point, len(grid))
	for p, runs := range grid {
		var rounds, added, removed float64
		for _, r := range runs {
			rounds += float64(r.Rounds)
			added += float64(r.EdgesAdded)
			removed += float64(r.EdgesRemoved)
		}
		nf := float64(len(runs))
		points[p] = point{MeanRounds: rounds / nf, MeanEdgesAdded: added / nf, MeanEdgesRemoved: removed / nf}
	}
	return points, nil
}

// pointChurn is a point's mean churned edges per executed round, as its
// runs measured it (delta-capable schedules only). Adaptive adversaries cut
// against live state, so a churnFor replay would not measure the same churn.
func pointChurn(pt point) float64 {
	if pt.MeanRounds <= 0 {
		return 0
	}
	return (pt.MeanEdgesAdded + pt.MeanEdgesRemoved) / pt.MeanRounds
}
