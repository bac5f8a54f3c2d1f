package rumor

import (
	"math"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

func TestNewSources(t *testing.T) {
	p := New(10, []int{0, 3, 3, 99, -1})
	if got := p.InformedCount(); got != 2 {
		t.Fatalf("InformedCount = %d, want 2 (dups and out-of-range ignored)", got)
	}
	if !p.Informed(0) || !p.Informed(3) || p.Informed(1) {
		t.Fatal("wrong informed set")
	}
}

func TestSpreadsOnRing(t *testing.T) {
	n := 32
	p := New(n, []int{0})
	dyn := dyngraph.NewStatic(graph.Cycle(n))
	res, err := mtm.NewEngine(dyn, p, mtm.Config{Seed: 1, MaxRounds: 100000}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("PPUSH did not complete on ring: %+v", res)
	}
	if !p.Done() || p.InformedCount() != n {
		t.Fatal("Done/InformedCount inconsistent")
	}
}

func TestSpreadsOnStarAndComplete(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(20), graph.Complete(20), graph.DoubleStar(20)} {
		p := New(20, []int{5})
		res, err := mtm.NewEngine(dyngraph.NewStatic(g), p, mtm.Config{Seed: 2, MaxRounds: 100000}).Run()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !res.Completed {
			t.Fatalf("%s: incomplete after %d rounds", g.Name(), res.Rounds)
		}
	}
}

func TestInformedSetMonotone(t *testing.T) {
	n := 16
	p := New(n, []int{0})
	dyn := dyngraph.NewStatic(graph.Grid(4, 4))
	last := 1
	eng := mtm.NewEngine(dyn, p, mtm.Config{Seed: 3, MaxRounds: 100000})
	for !eng.Finished() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		cur := p.InformedCount()
		if cur < last {
			t.Fatalf("round %d: informed count decreased %d -> %d", eng.Round(), last, cur)
		}
		last = cur
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteGraphLogarithmicSpread(t *testing.T) {
	// On K_n (α = 1) PPUSH must finish in O(polylog) rounds; compare n=32
	// vs n=256: rounds must grow far slower than n.
	measure := func(n int) float64 {
		total := 0
		for seed := uint64(0); seed < 5; seed++ {
			p := New(n, []int{0})
			res, err := mtm.NewEngine(dyngraph.NewStatic(graph.Complete(n)), p,
				mtm.Config{Seed: seed, MaxRounds: 1 << 20}).Run()
			if err != nil {
				t.Fatal(err)
			}
			total += res.Rounds
		}
		return float64(total) / 5
	}
	r32, r256 := measure(32), measure(256)
	if r256/r32 > 3.5 { // log growth ⇒ ratio ≈ log(256)/log(32) = 1.6
		t.Fatalf("complete-graph spread not polylog: %f (n=32) vs %f (n=256)", r32, r256)
	}
}

func TestRingSpreadScalesWithInverseAlpha(t *testing.T) {
	// Theorem 6.1 shape check: on rings α = 4/n so rounds should grow
	// roughly linearly in n (≈ D), certainly not quadratically.
	measure := func(n int) float64 {
		total := 0
		for seed := uint64(0); seed < 3; seed++ {
			p := New(n, []int{0})
			res, err := mtm.NewEngine(dyngraph.NewStatic(graph.Cycle(n)), p,
				mtm.Config{Seed: seed, MaxRounds: 1 << 20}).Run()
			if err != nil {
				t.Fatal(err)
			}
			total += res.Rounds
		}
		return float64(total) / 3
	}
	r32, r128 := measure(32), measure(128)
	ratio := r128 / r32
	if ratio < 2 || ratio > 10 { // expect ≈ 4× (linear in 1/α)
		t.Fatalf("ring scaling ratio %f outside linear-ish band (r32=%f r128=%f)", ratio, r32, r128)
	}
	_ = math.Log // keep math import if bounds change
}

func TestDecidePushUniformAmongUninformed(t *testing.T) {
	rng := prand.New(4)
	view := mtm.View{IDs: []int32{1, 2, 3, 4}, Tags: []uint64{0, 1, 0, 0, 1}}
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		a := DecidePush(view, rng)
		if !a.Propose {
			t.Fatal("must propose when an uninformed neighbor exists")
		}
		counts[a.Target]++
	}
	if counts[1] > 0 || counts[4] > 0 {
		t.Fatal("proposed to an informed neighbor")
	}
	if counts[2] < 1700 || counts[3] < 1700 {
		t.Fatalf("acceptance skewed: %v", counts)
	}
}

func TestDecidePushNoUninformed(t *testing.T) {
	rng := prand.New(5)
	view := mtm.View{IDs: []int32{1}, Tags: []uint64{0, 1}}
	if a := DecidePush(view, rng); a.Propose {
		t.Fatal("proposed with no uninformed neighbors")
	}
	if a := DecidePush(mtm.View{}, rng); a.Propose {
		t.Fatal("proposed with empty view")
	}
}

func TestAllSourcesMeansDoneImmediately(t *testing.T) {
	all := make([]int, 8)
	for i := range all {
		all[i] = i
	}
	p := New(8, all)
	if !p.Done() {
		t.Fatal("all-informed instance not Done")
	}
}
