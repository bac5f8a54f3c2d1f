package mobilegossip

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

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
	// Solved counts the trials that reached the objective.
	Solved int
	// MeanRounds, MinRounds, MaxRounds summarize Runs' round counts.
	MeanRounds float64
	MinRounds  int
	MaxRounds  int
	// MeanConnections and MeanTokensMoved summarize the engine meters.
	MeanConnections float64
	MeanTokensMoved float64
	// MeanEdgesAdded and MeanEdgesRemoved summarize the topology churn the
	// trials measured (nonzero only for delta-capable mobility schedules).
	MeanEdgesAdded   float64
	MeanEdgesRemoved float64
}

// SweepResult is a finished sweep.
type SweepResult struct {
	// Points holds one aggregate per SweepConfig.Points entry, in order.
	Points []PointResult
	// Seed echoes the base seed every cell seed was split from; together
	// with the point configs it makes any cell reproducible via SweepSeed.
	Seed uint64
	// Workers is the pool size the sweep actually used, as reported by the
	// runner that spawned the pool.
	Workers int
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// RunSweep executes every (point, trial) cell of the grid on a worker pool
// and returns per-point aggregates in grid order. It is the parallel,
// multi-run counterpart of Run: same validation, same determinism-from-seed
// contract, with the per-cell seeds split from cfg.Seed so that any worker
// count yields identical results.
func RunSweep(cfg SweepConfig) (SweepResult, error) {
	return RunSweepContext(context.Background(), cfg)
}

// RunSweepContext is RunSweep with cancellation: when ctx is canceled, no
// further cells are dispatched, in-flight simulations abort at their next
// round boundary, and the context's error is returned.
func RunSweepContext(ctx context.Context, cfg SweepConfig) (SweepResult, error) {
	var sr SweepResult
	if len(cfg.Points) == 0 {
		return sr, fmt.Errorf("mobilegossip: RunSweep with no points")
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	rcfg := runner.Config{Workers: cfg.Workers, Seed: cfg.Seed, OnProgress: cfg.OnProgress}
	sr.Seed = cfg.Seed
	// Report the pool size from the runner itself so the two cannot drift.
	sr.Workers = rcfg.PoolSize(len(cfg.Points) * trials)

	start := time.Now()
	grid, err := runner.MapGridContext(ctx, rcfg,
		len(cfg.Points), trials,
		func(p, t int, seed uint64) (Result, error) {
			run := cfg.Points[p]
			run.Seed = seed
			sim, err := New(run)
			if err != nil {
				return Result{}, fmt.Errorf("point %d trial %d: %w", p, t, err)
			}
			res, err := sim.Run(ctx)
			if err != nil {
				return Result{}, fmt.Errorf("point %d trial %d: %w", p, t, err)
			}
			return res, nil
		})
	if err != nil {
		return sr, err
	}
	sr.Elapsed = time.Since(start)

	sr.Points = make([]PointResult, len(cfg.Points))
	for p := range cfg.Points {
		pt := PointResult{Config: cfg.Points[p], Runs: grid[p]}
		pt.Config.Seed = 0
		var rounds, conns, moved, added, removed float64
		for i, r := range pt.Runs {
			if r.Solved {
				pt.Solved++
			}
			rounds += float64(r.Rounds)
			conns += float64(r.Connections)
			moved += float64(r.TokensMoved)
			added += float64(r.EdgesAdded)
			removed += float64(r.EdgesRemoved)
			if i == 0 || r.Rounds < pt.MinRounds {
				pt.MinRounds = r.Rounds
			}
			if r.Rounds > pt.MaxRounds {
				pt.MaxRounds = r.Rounds
			}
		}
		nf := float64(len(pt.Runs))
		pt.MeanRounds = rounds / nf
		pt.MeanConnections = conns / nf
		pt.MeanTokensMoved = moved / nf
		pt.MeanEdgesAdded = added / nf
		pt.MeanEdgesRemoved = removed / nf
		sr.Points[p] = pt
	}
	return sr, nil
}

// sweepJSON is the BENCH_*.json document shape emitted by WriteJSON: one
// self-describing object with a schema tag, sweep-level metadata and a flat
// list of per-point aggregates, so plotting scripts and CI diffing tools
// can consume sweeps without knowing the Go types.
type sweepJSON struct {
	Schema    string          `json:"schema"`
	GoVersion string          `json:"go_version"`
	Seed      uint64          `json:"seed"`
	Workers   int             `json:"workers"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Points    []sweepPointRow `json:"points"`
}

type sweepPointRow struct {
	Algorithm       string  `json:"algorithm"`
	Topology        string  `json:"topology"`
	N               int     `json:"n"`
	K               int     `json:"k"`
	Tau             int     `json:"tau,omitempty"`
	Epsilon         float64 `json:"epsilon,omitempty"`
	TagBits         int     `json:"tag_bits,omitempty"`
	Trials          int     `json:"trials"`
	Solved          int     `json:"solved"`
	MeanRounds      float64 `json:"mean_rounds"`
	MinRounds       int     `json:"min_rounds"`
	MaxRounds       int     `json:"max_rounds"`
	MeanConnections float64 `json:"mean_connections"`
	MeanTokensMoved float64 `json:"mean_tokens_moved"`
	EdgesAdded      float64 `json:"edges_added,omitempty"`
	EdgesRemoved    float64 `json:"edges_removed,omitempty"`
}

// SweepSchemaV1 and SweepSchemaV2 are the schema tags of the WriteJSON
// document. v2 added the sweep base seed and the per-point mean mobility
// churn (edges_added/edges_removed, dropped entirely by v1); consumers
// (cmd/benchgate) accept both.
const (
	SweepSchemaV1 = "mobilegossip/bench-v1"
	SweepSchemaV2 = "mobilegossip/bench-v2"
)

// WriteJSON emits the sweep as an indented BENCH-shaped JSON document
// (schema SweepSchemaV2).
func (sr *SweepResult) WriteJSON(w io.Writer) error {
	doc := sweepJSON{
		Schema:    SweepSchemaV2,
		GoVersion: runtime.Version(),
		Seed:      sr.Seed,
		Workers:   sr.Workers,
		ElapsedMS: sr.Elapsed.Milliseconds(),
	}
	for _, pt := range sr.Points {
		topo := pt.Config.Topology.Kind.String()
		if len(pt.Runs) > 0 {
			topo = pt.Runs[0].Topology
		}
		doc.Points = append(doc.Points, sweepPointRow{
			Algorithm:       pt.Config.Algorithm.String(),
			Topology:        topo,
			N:               pt.Config.N,
			K:               pt.Config.K,
			Tau:             pt.Config.Tau,
			Epsilon:         pt.Config.Epsilon,
			TagBits:         pt.Config.TagBits,
			Trials:          len(pt.Runs),
			Solved:          pt.Solved,
			MeanRounds:      pt.MeanRounds,
			MinRounds:       pt.MinRounds,
			MaxRounds:       pt.MaxRounds,
			MeanConnections: pt.MeanConnections,
			MeanTokensMoved: pt.MeanTokensMoved,
			EdgesAdded:      pt.MeanEdgesAdded,
			EdgesRemoved:    pt.MeanEdgesRemoved,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// SweepSeed exposes the per-cell seed derivation RunSweep uses, so callers
// can reproduce any single cell of a sweep with Run: cell (point p, trial
// t) of a sweep over P points with T trials runs at seed
// SweepSeed(base, p*T+t).
func SweepSeed(base uint64, cell int) uint64 {
	return prand.StreamSeed(base, uint64(cell))
}
