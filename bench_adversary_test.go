package mobilegossip_test

// BenchmarkAdversaryRound measures one topology round of an adversarial
// schedule — pull the base epoch's packed edge list, run the strategy's
// cuts, repair connectivity, and produce the CSR — comparing the same two
// paths as BenchmarkDynamicRound:
//
//   - delta:   the product path (the row name is historical): count the
//     difference of the effective edge lists for the reported delta, refill
//     the CSR in place from the sorted effective list (graph.Patcher.Load);
//   - rebuild: feed the effective edge list through graph.Builder from
//     scratch every round — the oracle baseline.
//
// The strategies span the catalogue's cost profiles: bipartition scans all
// edges obliviously, cutrich ranks all nodes against (here synthetic)
// state, blackout cuts one region episodically. The n=10000 delta rows are
// gated in CI alongside the engine and mobility suites.

import (
	"fmt"
	"testing"

	"mobilegossip/internal/adversary"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// benchReader is a cheap deterministic stand-in for live token state.
type benchReader struct{}

func (benchReader) TokenCount(u int) int { return (u * 2654435761) % 17 }

func BenchmarkAdversaryRound(b *testing.B) {
	strats := []struct {
		name   string
		mk     func(n int) adversary.Strategy
		budget func(n int) int
	}{
		{"bipartition", func(int) adversary.Strategy { return adversary.Bipartition() }, func(int) int { return 0 }},
		{"cutrich", func(int) adversary.Strategy { return adversary.CutRich() }, func(n int) int { return n / 8 }},
		{"blackout", func(int) adversary.Strategy { return adversary.Blackout(4, 8) }, func(int) int { return 0 }},
	}
	for _, n := range []int{10000, 100000} {
		base := graph.RandomRegular(n, 8, prand.New(31))
		for _, s := range strats {
			for _, mode := range []struct {
				name    string
				rebuild bool
			}{{"delta", false}, {"rebuild", true}} {
				b.Run(fmt.Sprintf("%s_n%d_%s", s.name, n, mode.name), func(b *testing.B) {
					e := adversary.New(dyngraph.NewStatic(base), s.mk(n), adversary.Options{
						Tau: 1, Seed: 37, Budget: s.budget(n), Rebuild: mode.rebuild,
					})
					e.Bind(benchReader{})
					e.At(1) // materialize round 1 outside the timer
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.At(i + 2)
					}
				})
			}
		}
	}
}
