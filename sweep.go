package mobilegossip

import (
	"fmt"

	"mobilegossip/internal/prand"
	"mobilegossip/internal/runner"
)

// SweepConfig describes a grid of gossip executions — the parallel
// counterpart of Config. Every point is run Trials times on a worker pool;
// per-run seeds are split deterministically from Seed, so a sweep's results
// are bit-identical regardless of Workers and of completion order.
type SweepConfig struct {
	// Points are the grid's parameter combinations, in output order. Each
	// point's Seed field is ignored: RunSweep overwrites it with the seed
	// split from SweepConfig.Seed for that (point, trial) cell, which is
	// what makes the sweep reproducible from one base seed.
	Points []Config
	// Trials is the per-point repetition count (default 1).
	Trials int
	// Seed is the base seed; all (point, trial) seeds derive from it via
	// prand.StreamSeed. 0 is a valid seed.
	Seed uint64
	// Workers bounds the pool; 0 means GOMAXPROCS.
	Workers int
	// OnProgress, if set, is called after every finished run with the
	// completed and total run counts. Calls are serialized.
	OnProgress func(done, total int)
}

// PointResult aggregates the trials of one sweep point.
type PointResult struct {
	// Config echoes the point (with Seed zeroed; per-run seeds are in Runs).
	Config Config
	// Runs holds the per-trial results in trial order.
	Runs []Result
	// MeanRounds is the mean of Runs' round counts.
	MeanRounds float64
	// MeanEdgesAdded and MeanEdgesRemoved summarize the topology churn the
	// trials measured (nonzero only for delta-capable mobility schedules).
	MeanEdgesAdded   float64
	MeanEdgesRemoved float64
}

// RunSweep executes every (point, trial) cell of the grid on a worker pool
// and returns per-point aggregates in grid order. It is the parallel,
// multi-run counterpart of Run: same validation, same determinism-from-seed
// contract, with the per-cell seeds split from cfg.Seed so that any worker
// count yields identical results.
func RunSweep(cfg SweepConfig) ([]PointResult, error) {
	if len(cfg.Points) == 0 {
		return nil, fmt.Errorf("mobilegossip: RunSweep with no points")
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	rcfg := runner.Config{Workers: cfg.Workers, Seed: cfg.Seed, OnProgress: cfg.OnProgress}
	grid, err := runner.MapGrid(rcfg, len(cfg.Points), trials,
		func(p, t int, seed uint64) (Result, error) {
			run := cfg.Points[p]
			run.Seed = seed
			res, err := Run(run)
			if err != nil {
				return Result{}, fmt.Errorf("point %d trial %d: %w", p, t, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	points := make([]PointResult, len(cfg.Points))
	for p := range cfg.Points {
		pt := PointResult{Config: cfg.Points[p], Runs: grid[p]}
		pt.Config.Seed = 0
		var rounds, added, removed float64
		for _, r := range pt.Runs {
			rounds += float64(r.Rounds)
			added += float64(r.EdgesAdded)
			removed += float64(r.EdgesRemoved)
		}
		nf := float64(len(pt.Runs))
		pt.MeanRounds = rounds / nf
		pt.MeanEdgesAdded = added / nf
		pt.MeanEdgesRemoved = removed / nf
		points[p] = pt
	}
	return points, nil
}

// SweepSeed exposes the per-cell seed derivation RunSweep uses, so callers
// can reproduce any single cell of a sweep with Run: cell (point p, trial
// t) of a sweep over P points with T trials runs at seed
// SweepSeed(base, p*T+t).
func SweepSeed(base uint64, cell int) uint64 {
	return prand.StreamSeed(base, uint64(cell))
}
