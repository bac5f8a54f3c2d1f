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
// dyngraph.Steppers, each holding two edge lists, two CSR buffer pairs and a
// Connector, plus the proximity grid and the strategy's cut set. The bound
// sits just above the measured 1,472 B/node; the (u, v) pair lists a delta
// used to carry (8 B per churned edge and layer: 2,211 B/node) do not fit
// under it.
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
	if perNode > 1536 {
		t.Fatalf("stacked schedule allocated %d B/node, want ≤ 1536", perNode)
	}
}
