package harness

import (
	"fmt"

	"mobilegossip"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/runner"
)

// runnerCfg maps experiment options onto the sweep engine. Workers = 0
// means GOMAXPROCS; every probe grid fans out through this one path.
func runnerCfg(o Options) runner.Config {
	return runner.Config{Workers: o.Workers, Seed: o.Seed, OnProgress: o.OnProgress}
}

// subRunnerCfg is runnerCfg with the base seed split by a per-sweep label,
// so an experiment that issues several Monte-Carlo grids draws disjoint
// seed streams for each.
func subRunnerCfg(o Options, label uint64) runner.Config {
	c := runnerCfg(o)
	c.Seed = prand.StreamSeed(o.Seed, label)
	return c
}

// sweep runs every config trials(o) times through mobilegossip.RunSweep,
// so cell (p, t) replays with mobilegossip.SweepSeed(o.Seed, p*trials(o)+t).
// An unsolved run is an error: every table row is a mean over solved runs.
func sweep(o Options, cfgs []mobilegossip.Config) ([]mobilegossip.PointResult, error) {
	sr, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points: cfgs, Trials: trials(o), Seed: o.Seed,
		Workers: o.Workers, OnProgress: o.OnProgress,
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range sr.Points {
		for _, res := range pt.Runs {
			if !res.Solved {
				return nil, fmt.Errorf("harness: %v on %s unsolved after %d rounds",
					pt.Config.Algorithm, res.Topology, res.Rounds)
			}
		}
	}
	return sr.Points, nil
}

// pointChurn is a point's mean churned edges per executed round, as its
// runs measured it (delta-capable schedules only). Adaptive adversaries cut
// against live state, so a churnFor replay would not measure the same churn.
func pointChurn(pt mobilegossip.PointResult) float64 {
	if pt.MeanRounds <= 0 {
		return 0
	}
	return (pt.MeanEdgesAdded + pt.MeanEdgesRemoved) / pt.MeanRounds
}
