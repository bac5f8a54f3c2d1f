package graph

import (
	"fmt"
	"slices"
	"testing"

	"mobilegossip/internal/prand"
)

// refTryPairing is tryPairing as it stood before the map-free verdict: a
// fresh stub slice, Builder and seen-map per attempt. Kept as the oracle.
func refTryPairing(n, d int, rng *prand.RNG) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	b := NewBuilderCap(n, n*d/2)
	seen := make(map[[2]int]bool, n*d/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return nil, false
		}
		seen[[2]int{u, v}] = true
		_ = b.AddEdge(u, v)
	}
	return b.Build(fmt.Sprintf("regular(%d,%d)", n, d)), true
}

// TestTryPairingMatchesMapReference runs both over one generator stream
// each, attempt after attempt with the scratch reused as RandomRegular
// reuses it: same verdict, same graph and name, same generator state.
func TestTryPairingMatchesMapReference(t *testing.T) {
	for _, c := range []struct{ n, d int }{
		{4, 2}, {5, 2}, {8, 3}, {16, 4}, {64, 4}, {64, 6}, {100, 3}, {33, 8}, {128, 4}, {256, 4}, {512, 6},
	} {
		succeeded := 0
		for seed := uint64(1); seed <= 8; seed++ {
			got, ref := prand.New(seed), prand.New(seed)
			p := newPairing(c.n, c.d)
			for attempt := 0; attempt < 50; attempt++ {
				g, ok := tryPairing(p, got)
				rg, rok := refTryPairing(c.n, c.d, ref)
				if ok != rok || got.State() != ref.State() {
					t.Fatalf("n=%d d=%d seed=%d attempt %d: ok %v vs %v; states equal: %v",
						c.n, c.d, seed, attempt, ok, rok, got.State() == ref.State())
				}
				if !ok {
					continue
				}
				succeeded++
				if g.Name() != rg.Name() || !slices.Equal(g.Edges(), rg.Edges()) {
					t.Fatalf("n=%d d=%d seed=%d attempt %d: graphs differ", c.n, c.d, seed, attempt)
				}
			}
		}
		// A pairing is simple with probability about e^{-(d²-1)/4}: one in
		// forty at d = 4, one in 6,000 at d = 6, so only small d can be
		// required to reach the success path.
		if succeeded == 0 && c.d <= 4 {
			t.Errorf("n=%d d=%d: no attempt succeeded, the success path went unchecked", c.n, c.d)
		}
	}
}
