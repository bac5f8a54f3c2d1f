package adversary

import (
	"fmt"
	"testing"
	"time"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mobility"
)

// timedBase charges the time spent inside the base schedule to ns. It
// forwards Stage, so the Engine reads the base's list as it does over a
// bare mobility schedule; the Stage of the next epoch commits the last.
type timedBase struct {
	*mobility.Schedule
	ns time.Duration
}

func (t *timedBase) Stage(r int) []uint64 {
	t0 := time.Now()
	edges := t.Schedule.Stage(r)
	t.ns += time.Since(t0)
	return edges
}

// BenchmarkChurnStages times the stages of one adversary epoch separately,
// at the shape of the bench's mobile-churn workload after its rebind
// (bipartition with a budget of 10,000 cuts over n = 50,000 waypoint
// walkers, τ = 1): pull the base
// topology (the whole inner mobility epoch up to its repaired list — the
// base builds no CSR, as bipartition walks the list; internal/mobility's
// benchmark of the same name splits it into its own stages), run the
// strategy (base list, cuts, merge), repair connectivity, count the
// difference from the previous epoch's list and load the CSR (what the
// engine's At costs this layer; the base is read through its list alone,
// so "base" holds neither). It drives the Engine's own produce and the graph
// package's repair / diff / load in the order dyngraph.Stepper runs them,
// on buffers of its own, so the product path carries no timers. Each stage
// is reported as <stage>-ms/epoch; DESIGN.md §8 has the table, `make
// bench-stages` the medians.
func BenchmarkChurnStages(b *testing.B) {
	const n = 50000
	base := &timedBase{Schedule: mobility.New(mobility.Waypoint(0.01, 2), mobility.Options{N: n, Tau: 1, Seed: 1})}
	e := New(base, Bipartition(), Options{Tau: 1, Seed: 2, Budget: 10000})
	conn, patcher := graph.NewConnector(n), graph.NewPatcher(n)
	var lists [2][]uint64
	cur, epoch := 0, -1
	var produce, repair, diff, load time.Duration
	epochStep := func() {
		epoch++
		t0 := time.Now()
		next := e.produce(epoch, lists[1-cur][:0])
		t1 := time.Now()
		next = conn.Connect(next)
		t2 := time.Now()
		graph.DiffPacked(lists[cur], next)
		t3 := time.Now()
		patcher.Load(next, "stage")
		t4 := time.Now()
		lists[1-cur], cur = next, 1-cur
		produce, repair, diff, load = produce+t1.Sub(t0), repair+t2.Sub(t1), diff+t3.Sub(t2), load+t4.Sub(t3)
	}
	for i := 0; i < 4; i++ { // grow every buffer to its high-water mark
		epochStep()
	}
	base.ns, produce, repair, diff, load = 0, 0, 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epochStep()
	}
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"base", base.ns}, {"strategy", produce - base.ns}, {"repair", repair}, {"diff", diff}, {"load", load}} {
		b.ReportMetric(st.d.Seconds()*1e3/float64(b.N), st.name+"-ms/epoch")
	}
}

// BenchmarkRebindJump times what Simulation.Rebind leaves for the next Step
// at the shape of the bench's mobile-churn workload: a freshly built
// schedule (construction untimed) asked for a late round first — round 31,
// where the workload rebinds, and round 1,001 — for its graph and its delta,
// as the engine's next round asks. The jump moves the crowd once per skipped
// round and scans, perturbs, repairs and loads only where it lands
// (DESIGN.md §8, §14, §15).
func BenchmarkRebindJump(b *testing.B) {
	const n = 50000
	for _, stacked := range []bool{false, true} {
		for _, round := range []int{31, 1001} {
			name := "waypoint"
			if stacked {
				name += "+bipartition"
			}
			b.Run(fmt.Sprintf("%s/r%d", name, round), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var d dyngraph.DeltaDynamic = mobility.New(mobility.Waypoint(0.01, 2), mobility.Options{N: n, Tau: 1, Seed: 1})
					if stacked {
						d = New(d, Bipartition(), Options{Tau: 1, Seed: 2, Budget: 10000})
					}
					b.StartTimer()
					d.At(round)
					d.DeltaFor(round)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/jump")
			})
		}
	}
}
