package mobilegossip_test

import (
	"runtime"
	"testing"

	"mobilegossip"
)

// TestNewFootprintMobileChurn gates what a session costs to hold, the way
// TestNewStateBacksAssignedSpan (internal/core) gates its token sets: the
// bench's mobile-churn configuration — n = 50,000 waypoint walkers, k = 4
// — must construct within 4 KB per node, counted as
// runtime.MemStats.TotalAlloc so the figure is the same on any machine.
// DESIGN.md §8 has the attribution table. The bound is what a token arena
// sized n·N/64 words (6.2 KB/node here) cannot meet.
func TestNewFootprintMobileChurn(t *testing.T) {
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: n, K: 4, Tau: 1, Seed: 1,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.01},
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNode := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("mobilegossip.New: %d B/node at n = %d", perNode, sim.N())
	if perNode > 4096 {
		t.Fatalf("mobilegossip.New allocated %d B/node, want ≤ 4096", perNode)
	}
}

// TestStackedScheduleFootprint gates what the workload's topology costs once
// the adversary is stacked on: bipartition (budget 10,000) over n = 50,000
// waypoint walkers at τ = 1, built and stepped through three epochs — two
// dyngraph.Steppers, each holding two edge lists and a Connector, one CSR
// buffer pair (the outer one: bipartition walks the base's list, so the
// inner Stepper never loads a graph), the proximity grid, its scan's staging
// buffer, the crowd's spare slot that the next epoch is staged in
// (positions and waypoint state, 40 B/node) and the strategy's cut set. It
// measured 1,006 B/node without the spare slot and 1,034 with it; the
// bound, 1,056, is the former plus 5 %. A base that loads its CSR again
// (1,095 B/node) does not fit under it.
func TestStackedScheduleFootprint(t *testing.T) {
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dyn, err := mobilegossip.Topology{
		Kind: mobilegossip.MobileWaypoint, Speed: 0.01,
		Adversary: mobilegossip.AdvBipartition, AdvBudget: 10000,
	}.Build(n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		dyn.At(r)
	}
	runtime.ReadMemStats(&after)
	perNode := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("bipartition over waypoint, build + 3 epochs: %d B/node at n = %d", perNode, dyn.N())
	if perNode > 1056 {
		t.Fatalf("stacked schedule allocated %d B/node, want ≤ 1056", perNode)
	}
}
