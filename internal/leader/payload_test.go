package leader

import (
	"runtime"
	"testing"
	"time"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// TestPayloadFollowsWinner: after convergence, every node must hold the
// *winner's* payload — the property SimSharedBit relies on to disseminate
// the R′ seed.
func TestPayloadFollowsWinner(t *testing.T) {
	const n = 24
	ids := make([]int, n)
	payloads := make([]uint64, n)
	for u := 0; u < n; u++ {
		ids[u] = n - u // node n-1 holds the minimum UID 1
		payloads[u] = uint64(1000 + u)
	}
	p := New(ids, payloads)
	dyn := dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(3)))
	res, err := mtm.NewEngine(dyn, p, mtm.Config{Seed: 5}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not converged after %d rounds", res.Rounds)
	}
	if !electedMin(p) {
		t.Fatal("winner is not the minimum UID")
	}
	wantPayload := payloads[n-1] // the node holding UID 1
	for u := 0; u < n; u++ {
		if got := p.Payload(u); got != wantPayload {
			t.Errorf("node %d carries payload %d, want winner's %d", u, got, wantPayload)
		}
		if p.cand[u] != 1 {
			t.Errorf("node %d candidate %d, want 1", u, p.cand[u])
		}
	}
}

// TestPayloadQuickManySeeds: the payload-follows-winner property across
// seeds and graph draws.
func TestPayloadQuickManySeeds(t *testing.T) {
	const n = 16
	for seed := uint64(1); seed <= 12; seed++ {
		ids := make([]int, n)
		payloads := make([]uint64, n)
		rng := prand.New(seed * 31)
		perm := rng.Perm(n)
		minU := 0
		for u := 0; u < n; u++ {
			ids[u] = perm[u] + 1
			payloads[u] = uint64(u) * 7
			if ids[u] == 1 {
				minU = u
			}
		}
		p := New(ids, payloads)
		dyn := dyngraph.RotatingRegular(n, 4, 1, seed)
		res, err := mtm.NewEngine(dyn, p, mtm.Config{Seed: seed + 99}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || !electedMin(p) {
			t.Fatalf("seed %d: did not elect min (%d rounds)", seed, res.Rounds)
		}
		for u := 0; u < n; u++ {
			if p.Payload(u) != payloads[minU] {
				t.Fatalf("seed %d: node %d payload %d, want %d", seed, u, p.Payload(u), payloads[minU])
			}
		}
	}
}

// TestConcurrentEngineLeavesNoGoroutines: runs leave no goroutines
// behind. A round's exchanges may fan out to helper goroutines, but those
// are one bounded pool per process (at most GOMAXPROCS−1, started by the
// first large round and parked between rounds), so the baseline is read
// after a first run whose early rounds cross the fan-out minimum.
func TestConcurrentEngineLeavesNoGoroutines(t *testing.T) {
	const n = 400
	run := func(seed uint64) {
		ids := make([]int, n)
		for u := range ids {
			ids[u] = u + 1
		}
		p := New(ids, make([]uint64, n))
		dyn := dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(seed)))
		if _, err := mtm.NewEngine(dyn, p, mtm.Config{Seed: seed}).Run(); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	before := runtime.NumGoroutine()
	for seed := uint64(2); seed <= 8; seed++ {
		run(seed)
	}
	// Give any stray goroutines a moment to park, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after runs", before, after)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
