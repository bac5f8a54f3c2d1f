package mobilegossip

import "mobilegossip/internal/prand"

// SweepSeed is the seed of one cell of a seeded grid: cell (point p, trial
// t) of a grid over P points with T trials runs at SweepSeed(base, p*T+t).
// Every grid in the module derives its cell seeds this way — a scenario's
// `grid:` block locally and against gossipd, and the harness's experiment
// grids — so any single cell replays as one Run with Config.Seed set to
// this value, on any transport and at any GOMAXPROCS.
func SweepSeed(base uint64, cell int) uint64 {
	return prand.StreamSeed(base, uint64(cell))
}
