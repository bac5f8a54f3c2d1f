// Package runner is the deterministic worker-pool sweep engine behind the
// harness experiments (E1..E27) and the public mobilegossip.RunSweep API.
//
// A sweep is a grid of independent work items — typically (experiment point
// × trial) cells of a Figure-1 parameter sweep. Map fans the items out
// across a bounded pool of goroutines and collects the results in grid
// order. Three properties make the engine safe to drop under existing
// sequential loops:
//
//   - Determinism: every item receives a seed derived from the base seed by
//     prand.StreamSeed stream splitting, never from shared mutable RNG
//     state, so results are bit-identical regardless of worker count or
//     completion order.
//   - Grid-order collection: results[i] always holds item i's value, even
//     when item i+1 finishes first.
//   - Error cancellation: the first error stops the dispatch of new items;
//     in-flight items finish and the smallest failing grid index wins, so
//     the reported error does not depend on goroutine scheduling among the
//     items actually attempted.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"mobilegossip/internal/prand"
)

// Job identifies one grid cell handed to a worker.
type Job struct {
	// Index is the cell's position in grid order, 0 ≤ Index < n.
	Index int
	// Seed is the cell's private seed, split from Config.Seed by
	// prand.StreamSeed(seed, Index). Work functions that derive all their
	// randomness from it are automatically deterministic under any worker
	// count.
	Seed uint64
}

// Config tunes one Map invocation.
type Config struct {
	// Workers bounds the pool size; 0 (or negative) means GOMAXPROCS.
	Workers int
	// Seed is the base seed from which every Job.Seed is split.
	Seed uint64
	// OnProgress, if set, is called after every completed item with the
	// number of items finished so far and the grid size. Calls are
	// serialized but may arrive out of grid order.
	OnProgress func(done, total int)
}

// PoolSize returns the worker-pool size a Map over n cells will actually
// use: the configured Workers (GOMAXPROCS when unset), clamped to the grid
// size. Callers that report a pool size use this so the report cannot
// drift from the pool Map spawns.
func (c Config) PoolSize(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Map runs fn over n grid cells on a worker pool and returns the results in
// grid order. On error it cancels the dispatch of remaining cells and
// returns the error of the smallest failing index among the cells that ran.
func Map[T any](cfg Config, n int, fn func(Job) (T, error)) ([]T, error) {
	return MapContext(context.Background(), cfg, n, fn)
}

// MapContext is Map with cancellation: when ctx is canceled no further
// cells are dispatched, in-flight cells finish (work functions that honor
// ctx themselves abort early), and the context's error is returned unless
// a cell error (smallest index) takes precedence.
func MapContext[T any](ctx context.Context, cfg Config, n int, fn func(Job) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative grid size %d", n)
	}
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}

	var (
		mu      sync.Mutex // guards dispatch/error state; never held in fn or OnProgress
		next    int        // index of the next cell to dispatch
		errIdx  = -1
		firstEr error
		progMu  sync.Mutex // serializes done counting + OnProgress off the pool mutex
		done    int        // completed cell count, guarded by progMu
	)
	// take dispatches the next cell, or reports that the worker should
	// exit (grid drained or sweep failed).
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if errIdx >= 0 || next >= n || ctx.Err() != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(i int, err error) {
		if err != nil {
			mu.Lock()
			if errIdx < 0 || i < errIdx {
				errIdx, firstEr = i, err
			}
			mu.Unlock()
			return
		}
		if cfg.OnProgress != nil {
			// Incrementing under progMu keeps the delivered counts strictly
			// monotonic while dispatch (mu) never waits on callback I/O.
			progMu.Lock()
			done++
			cfg.OnProgress(done, n)
			progMu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for w := cfg.PoolSize(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				v, err := fn(Job{Index: i, Seed: prand.StreamSeed(cfg.Seed, uint64(i))})
				if err == nil {
					results[i] = v
				}
				finish(i, err)
			}
		}()
	}
	wg.Wait()

	if errIdx >= 0 {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// MapGrid runs fn over a points×trials grid in row-major order (all trials
// of point 0, then point 1, …) and returns results indexed [point][trial].
// The seed passed to fn is the cell's split stream seed.
func MapGrid[T any](cfg Config, points, trials int, fn func(point, trial int, seed uint64) (T, error)) ([][]T, error) {
	return MapGridContext(context.Background(), cfg, points, trials, fn)
}

// MapGridContext is MapGrid with cancellation (see MapContext).
func MapGridContext[T any](ctx context.Context, cfg Config, points, trials int, fn func(point, trial int, seed uint64) (T, error)) ([][]T, error) {
	if points < 0 || trials < 0 {
		return nil, fmt.Errorf("runner: negative grid %d×%d", points, trials)
	}
	flat, err := MapContext(ctx, cfg, points*trials, func(j Job) (T, error) {
		return fn(j.Index/max(trials, 1), j.Index%max(trials, 1), j.Seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, points)
	for p := range out {
		out[p] = flat[p*trials : (p+1)*trials]
	}
	return out, nil
}
