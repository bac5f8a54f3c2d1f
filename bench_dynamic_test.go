package mobilegossip_test

// BenchmarkDynamicRound measures one topology round of a mobility schedule
// — move every node, recompute the unit-disk proximity edges on the spatial
// hash grid, repair connectivity, and produce the CSR — comparing the
// product path with its test oracle:
//
//   - delta:   the product path. The row name is historical (BENCH_core.json
//     keys on it): the delta is two counts taken in one merge walk over the
//     sorted edge lists, because it is reported (DeltaFor,
//     EdgesAdded/Removed), not applied — the CSR is refilled in place from
//     the sorted list itself (graph.Patcher.Load), at a cost independent of
//     the churn;
//   - rebuild: feed the edge list through graph.Builder from scratch every
//     round (sort, deduplicate, allocate) — the pre-mobility status quo
//     (what dyngraph.Regen does), kept as the oracle.
//
// The two produce byte-identical graphs (see internal/mobility's
// equivalence tests); the benchmark exists to pin the product path's
// cost, which the CI bench-gate locks in alongside the engine suite.

import (
	"fmt"
	"testing"

	"mobilegossip/internal/mobility"
)

func BenchmarkDynamicRound(b *testing.B) {
	models := []struct {
		name string
		mk   func(speed float64) mobility.Model
	}{
		{"waypoint", func(v float64) mobility.Model { return mobility.Waypoint(v, 2) }},
		{"levy", func(v float64) mobility.Model { return mobility.Levy(v, 1.6) }},
		{"group", func(v float64) mobility.Model { return mobility.Group(4, 0.6, v) }},
		{"commuter", func(v float64) mobility.Model { return mobility.Commuter(v, 64) }},
	}
	for _, n := range []int{10000, 100000} {
		// The physical smartphone regime: a walker covers a few percent of
		// the radio range per round (1 m/s against a 30–100 m range), so a
		// round churns a few percent of the edges. (An absolute speed would
		// cross the whole range per round at n = 10⁵, churning every edge —
		// the regime of the bench's mobile-churn workload, which Load
		// handles at the same cost.)
		speed := mobility.DefaultRadius(n) / 32
		for _, m := range models {
			for _, mode := range []struct {
				name    string
				rebuild bool
			}{{"delta", false}, {"rebuild", true}} {
				b.Run(fmt.Sprintf("%s_n%d_%s", m.name, n, mode.name), func(b *testing.B) {
					s := mobility.New(m.mk(speed), mobility.Options{
						N: n, Tau: 1, Seed: 11, Rebuild: mode.rebuild,
					})
					s.At(1) // materialize round 1 outside the timer
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.At(i + 2)
					}
				})
			}
		}
	}
}
