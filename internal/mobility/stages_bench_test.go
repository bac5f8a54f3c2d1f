package mobility

import (
	"testing"
	"time"

	"mobilegossip/internal/graph"
)

// BenchmarkChurnStages times the stages of one motion epoch separately, at
// the shape of the bench's mobile-churn workload (n = 50,000 waypoint
// walkers, speed 0.01, default radius, τ = 1): move the crowd, scan for
// proximity, repair connectivity, count the difference from the previous
// epoch's list and load the CSR (both paid only by a schedule whose graph
// is asked — the engine's own, not a base under an adversary). It drives the
// Schedule's own move and scan and the graph package's repair / diff / load
// in the order dyngraph.Stepper runs them, on buffers of its own, so the
// product path carries no timers. Each stage is reported as
// <stage>-ms/epoch; DESIGN.md §8 has the table, `make bench-stages` the
// medians. internal/adversary's benchmark of the same name times the layer
// stacked on top.
func BenchmarkChurnStages(b *testing.B) {
	const n = 50000
	s := New(Waypoint(0.01, 2), Options{N: n, Tau: 1, Seed: 1})
	conn, patcher := graph.NewConnector(n), graph.NewPatcher(n)
	lists := [2][]uint64{append([]uint64(nil), s.Edges()...), nil}
	cur, epoch := 0, 0
	c := &s.crowd[s.Slot()]
	s.field.x, s.field.y = c.x, c.y
	var move, scan, repair, diff, load time.Duration
	epochStep := func() {
		epoch++
		t0 := time.Now()
		c.model.Step(epoch, &c.rng, c.x, c.y)
		t1 := time.Now()
		next := s.field.computeEdges(lists[1-cur][:0])
		t2 := time.Now()
		next = conn.Connect(next)
		t3 := time.Now()
		graph.DiffPacked(lists[cur], next)
		t4 := time.Now()
		patcher.Load(next, "stage")
		t5 := time.Now()
		lists[1-cur], cur = next, 1-cur
		move, scan, repair, diff, load = move+t1.Sub(t0), scan+t2.Sub(t1), repair+t3.Sub(t2), diff+t4.Sub(t3), load+t5.Sub(t4)
	}
	for i := 0; i < 4; i++ { // grow every buffer to its high-water mark
		epochStep()
	}
	move, scan, repair, diff, load = 0, 0, 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epochStep()
	}
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"move", move}, {"scan", scan}, {"repair", repair}, {"diff", diff}, {"load", load}} {
		b.ReportMetric(st.d.Seconds()*1e3/float64(b.N), st.name+"-ms/epoch")
	}
}
