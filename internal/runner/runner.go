// Package runner is the deterministic worker pool behind every seeded grid
// in the module: scenario `grid:` blocks (each cell one session, local or
// on gossipd) and the harness experiments (E1..E27).
//
// A grid is a set of independent work items — typically (point × trial)
// cells of a Figure-1 parameter sweep. Map fans the items out across
// min(GOMAXPROCS, items) goroutines and collects the results in grid
// order. Three properties make the engine safe to drop under existing
// sequential loops:
//
//   - Determinism: every item receives a seed derived from the base seed by
//     prand.StreamSeed stream splitting, never from shared mutable RNG
//     state, so results are bit-identical at any GOMAXPROCS and under any
//     completion order.
//   - Grid-order collection: results[i] always holds item i's value, even
//     when item i+1 finishes first.
//   - Error cancellation: the first error stops the dispatch of new items;
//     in-flight items finish and the smallest failing grid index wins, so
//     the reported error does not depend on goroutine scheduling among the
//     items actually attempted.
package runner

import (
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
	// randomness from it are automatically deterministic at any
	// GOMAXPROCS.
	Seed uint64
}

// Config tunes one Map invocation.
type Config struct {
	// Seed is the base seed from which every Job.Seed is split.
	Seed uint64
}

// Map runs fn over n grid cells on min(GOMAXPROCS, n) goroutines and
// returns the results in grid order. On error it cancels the dispatch of
// remaining cells and returns the error of the smallest failing index
// among the cells that ran.
func Map[T any](cfg Config, n int, fn func(Job) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative grid size %d", n)
	}
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}

	var (
		mu      sync.Mutex // guards dispatch/error state; never held in fn
		next    int        // index of the next cell to dispatch
		errIdx  = -1
		firstEr error
	)
	// take dispatches the next cell, or reports that the worker should
	// exit (grid drained or sweep failed).
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if errIdx >= 0 || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstEr = i, err
		}
	}

	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				v, err := fn(Job{Index: i, Seed: prand.StreamSeed(cfg.Seed, uint64(i))})
				if err != nil {
					fail(i, err)
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()

	if errIdx >= 0 {
		return nil, firstEr
	}
	return results, nil
}

// MapGrid runs fn over a points×trials grid in row-major order (all trials
// of point 0, then point 1, …) and returns results indexed [point][trial].
// The seed passed to fn is the cell's split stream seed.
func MapGrid[T any](cfg Config, points, trials int, fn func(point, trial int, seed uint64) (T, error)) ([][]T, error) {
	if points < 0 || trials < 0 {
		return nil, fmt.Errorf("runner: negative grid %d×%d", points, trials)
	}
	flat, err := Map(cfg, points*trials, func(j Job) (T, error) {
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
