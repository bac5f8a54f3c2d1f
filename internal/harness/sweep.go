package harness

import (
	"fmt"

	"mobilegossip"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/runner"
	"mobilegossip/internal/stats"
)

// runnerCfg maps experiment options onto the sweep engine. Workers = 0
// means GOMAXPROCS; every experiment grid fans out through this one path.
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

// trialSeed is the per-trial seed formula the harness has always used for
// mobilegossip.Run sweeps. It depends only on (options, trial), never on
// shared RNG state, which is what lets the parallel runner reproduce the
// sequential tables byte-for-byte.
func trialSeed(o Options, trial int) uint64 {
	return o.Seed + uint64(1000*trial) + 17
}

// meanRoundsGrid evaluates every config trials(o) times on the worker pool
// and returns the per-config mean round counts in grid order.
func meanRoundsGrid(o Options, cfgs []mobilegossip.Config) ([]float64, error) {
	rows, err := runner.MapGrid(runnerCfg(o), len(cfgs), trials(o),
		func(p, t int, _ uint64) (float64, error) {
			cfg := cfgs[p]
			cfg.Seed = trialSeed(o, t)
			res, err := mobilegossip.Run(cfg)
			if err != nil {
				return 0, err
			}
			if !res.Solved {
				return 0, fmt.Errorf("harness: %v on %s unsolved after %d rounds",
					cfg.Algorithm, res.Topology, res.Rounds)
			}
			return float64(res.Rounds), nil
		})
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(cfgs))
	for p, xs := range rows {
		means[p] = stats.Summarize(xs).Mean
	}
	return means, nil
}

// runStats are the per-config means meanStatsGrid aggregates: round count
// plus the measured topology churn (delta-capable schedules only).
type runStats struct {
	Rounds, EdgesAdded, EdgesRemoved float64
}

// churnPerRoundMean is the mean churned edges per executed round.
func (s runStats) churnPerRoundMean() float64 {
	if s.Rounds <= 0 {
		return 0
	}
	return (s.EdgesAdded + s.EdgesRemoved) / s.Rounds
}

// meanStatsGrid is meanRoundsGrid keeping the runs' churn meters too — the
// adversary experiments report the churn the runs actually experienced
// (adaptive strategies cut differently against live state than against a
// throwaway replay, so a churnFor-style re-measure would be wrong for them).
func meanStatsGrid(o Options, cfgs []mobilegossip.Config) ([]runStats, error) {
	rows, err := runner.MapGrid(runnerCfg(o), len(cfgs), trials(o),
		func(p, t int, _ uint64) (runStats, error) {
			cfg := cfgs[p]
			cfg.Seed = trialSeed(o, t)
			res, err := mobilegossip.Run(cfg)
			if err != nil {
				return runStats{}, err
			}
			if !res.Solved {
				return runStats{}, fmt.Errorf("harness: %v on %s unsolved after %d rounds",
					cfg.Algorithm, res.Topology, res.Rounds)
			}
			return runStats{
				Rounds:     float64(res.Rounds),
				EdgesAdded: float64(res.EdgesAdded), EdgesRemoved: float64(res.EdgesRemoved),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	means := make([]runStats, len(cfgs))
	for p, xs := range rows {
		var m runStats
		for _, s := range xs {
			m.Rounds += s.Rounds
			m.EdgesAdded += s.EdgesAdded
			m.EdgesRemoved += s.EdgesRemoved
		}
		nf := float64(len(xs))
		m.Rounds /= nf
		m.EdgesAdded /= nf
		m.EdgesRemoved /= nf
		means[p] = m
	}
	return means, nil
}

// meanRounds runs cfg over several seeds and returns the mean round count.
func meanRounds(o Options, cfg mobilegossip.Config) (float64, error) {
	ms, err := meanRoundsGrid(o, []mobilegossip.Config{cfg})
	if err != nil {
		return 0, err
	}
	return ms[0], nil
}
