package mobilegossip_test

import (
	"runtime"
	"testing"

	"mobilegossip"
)

// TestNewFootprintMobileChurn gates what a session costs to hold, the way
// TestNewStateBacksAssignedSpan (internal/core) gates its token sets: the
// bench's mobile-churn configuration — n = 50,000 waypoint walkers, k = 4,
// two engine workers — must construct within 4 KB per node, counted as
// runtime.MemStats.TotalAlloc so the figure is the same on any machine.
// DESIGN.md §8 has the attribution table. The bound is what a token arena
// sized n·N/64 words (6.2 KB/node here) cannot meet.
func TestNewFootprintMobileChurn(t *testing.T) {
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: n, K: 4, Tau: 1, Seed: 1, EngineWorkers: 2,
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
