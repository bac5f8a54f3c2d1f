package mobility

// The subsystem's three invariants, quick-checked per round for every
// motion model (ISSUE 3 satellite): (1) the CSR loaded from the epoch's
// sorted edge list is byte-identical to a from-scratch rebuild, (2) every
// emitted topology is connected, (3) the topology changes only at τ-round
// epoch boundaries.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// testModels instantiates one of each motion model at a common speed.
func testModels() map[string]func() Model {
	return map[string]func() Model{
		"waypoint": func() Model { return Waypoint(0.02, 2) },
		"levy":     func() Model { return Levy(0.02, 1.6) },
		"group":    func() Model { return Group(3, 0.7, 0.02) },
		"commuter": func() Model { return Commuter(0.02, 10) },
	}
}

func TestDeltaMatchesRebuildConnectedAndStable(t *testing.T) {
	const n, rounds = 300, 51 // 50 epoch changes at τ = 1
	for name, mk := range testModels() {
		for _, tau := range []int{1, 3} {
			opts := Options{N: n, Tau: tau, Seed: 99}
			delta := New(mk(), opts)
			opts.Rebuild = true
			rebuild := New(mk(), opts)

			lastChange := 1
			prevEdges := delta.At(1).NumEdges()
			for r := 1; r <= rounds; r++ {
				dg, rg := delta.At(r), rebuild.At(r)
				if !dg.EqualCSR(rg) || dg.Name() != rg.Name() {
					t.Fatalf("%s τ=%d r=%d: loaded CSR %q != rebuilt CSR %q", name, tau, r, dg.Name(), rg.Name())
				}
				if !dg.Connected() {
					t.Fatalf("%s τ=%d r=%d: disconnected topology", name, tau, r)
				}
				d := delta.DeltaFor(r)
				if d.Change() {
					if (r-1)%tau != 0 || r == 1 {
						t.Fatalf("%s τ=%d: delta at non-epoch round %d", name, tau, r)
					}
					if r-lastChange < tau {
						t.Fatalf("%s τ=%d: changes %d rounds apart (rounds %d, %d)",
							name, tau, r-lastChange, lastChange, r)
					}
					lastChange = r
					// The delta must account exactly for the edge-count move.
					want := prevEdges + d.Added - d.Removed
					if dg.NumEdges() != want {
						t.Fatalf("%s τ=%d r=%d: %d edges, delta predicts %d",
							name, tau, r, dg.NumEdges(), want)
					}
				} else if dg.NumEdges() != prevEdges {
					t.Fatalf("%s τ=%d r=%d: edge count changed without a delta", name, tau, r)
				}
				prevEdges = dg.NumEdges()
			}
		}
	}
}

// TestScheduleReplayDeterminism: querying a round behind the schedule's
// cursor replays the trajectory from the seed and lands on the identical
// topology a fresh schedule produces.
func TestScheduleReplayDeterminism(t *testing.T) {
	for name, mk := range testModels() {
		opts := Options{N: 200, Tau: 1, Seed: 5}
		a := New(mk(), opts)
		a.At(30)
		rewound := a.At(7)
		fresh := New(mk(), opts).At(7)
		if !rewound.EqualCSR(fresh) {
			t.Fatalf("%s: replayed round 7 differs from a fresh schedule's", name)
		}
	}
}

// TestScanMatchesAllPairs: the grid scan's list is the all-pairs unit-disk
// list, already in canonical order, on grids of one cell, of fewer cells than
// a neighborhood is wide, and of many — including points on the far border,
// whose coordinate scales to one cell past the grid.
func TestScanMatchesAllPairs(t *testing.T) {
	for _, tc := range []struct {
		n int
		r float64
	}{{1, 0}, {2, 2}, {40, 0.6}, {60, 0.4}, {200, 0.3}, {500, 0}, {500, 0.013}} {
		f := newField(tc.n, tc.r)
		rng := prand.New(uint64(tc.n))
		for i := range f.x {
			f.x[i], f.y[i] = rng.Float64(), rng.Float64()
		}
		f.x[0], f.y[tc.n-1] = 1, 1
		var want []uint64
		for u := 0; u < tc.n; u++ {
			for v := u + 1; v < tc.n; v++ {
				dx, dy := f.x[v]-f.x[u], f.y[v]-f.y[u]
				if dx*dx+dy*dy <= f.r2 {
					want = append(want, graph.PackEdge(int32(u), int32(v)))
				}
			}
		}
		if got := f.computeEdges(nil); !slices.Equal(got, want) {
			t.Fatalf("n=%d r=%g (%d×%d cells): scan found %d edges, all pairs %d", tc.n, f.r, f.side, f.side, len(got), len(want))
		}
	}
}

// TestFrozenSchedule: Tau <= 0 is a τ = ∞ snapshot — same graph at every
// round, stability Infinite, still connected.
func TestFrozenSchedule(t *testing.T) {
	s := New(Waypoint(0.02, 2), Options{N: 150, Seed: 3})
	if s.Stability() != dyngraph.Infinite {
		t.Fatalf("frozen schedule stability = %d", s.Stability())
	}
	g1 := s.At(1)
	if !g1.Connected() {
		t.Fatal("frozen snapshot disconnected")
	}
	if g2 := s.At(1000); g2 != g1 {
		t.Fatal("frozen schedule changed topology")
	}
	if d := s.DeltaFor(500); d.Change() {
		t.Fatal("frozen schedule reported a delta")
	}
}

// TestGatheringDisconnectsAreRepaired: crank the gathering intensity to
// collapse the crowd into far-apart clusters — the regime where the raw
// unit-disk graph disconnects — and require every round connected anyway.
func TestGatheringDisconnectsAreRepaired(t *testing.T) {
	s := New(Group(4, 1.0, 0.05), Options{N: 240, Tau: 1, Seed: 8, Radius: 0.04})
	for r := 1; r <= 60; r++ {
		if !s.At(r).Connected() {
			t.Fatalf("round %d disconnected despite repair", r)
		}
	}
}

// TestDefaultRadius: mean degree under uniform placement should land near
// the designed ≈ 8 (loose bounds; the placement is random).
func TestDefaultRadius(t *testing.T) {
	s := New(Waypoint(0, 1), Options{N: 2000, Seed: 1})
	g := s.At(1)
	mean := 2 * float64(g.NumEdges()) / float64(g.N())
	if mean < 5 || mean > 12 {
		t.Fatalf("default-radius mean degree = %.1f, want ≈ 8", mean)
	}
}

// TestRestoreRejectsCorruptEdgeList: the CSR is loaded straight from the
// checkpointed edge list, and Load panics on a list that is not canonical —
// so a tampered list must fail RestoreFrom by error first. So must an epoch
// no written schedule can be in: New is eager, so anything below 0 would
// otherwise resume silently on the wrong trajectory.
func TestRestoreRejectsCorruptEdgeList(t *testing.T) {
	opts := Options{N: 60, Tau: 1, Seed: 4}
	// snapshot checkpoints a schedule at round 5 (epoch 4) with its edge list
	// tampered in place, and its epoch overwritten when epoch != 4.
	snapshot := func(tamper func(edges []uint64), epoch int) *ckpt.Reader {
		src := New(Waypoint(0.02, 2), opts)
		src.At(5)
		tamper(src.Edges())
		var buf, head bytes.Buffer
		w := ckpt.NewWriter(&buf)
		src.CheckpointTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// The epoch follows the section name, n and the four RNG words; any
		// epoch in [-64, 63] is one varint byte.
		hw := ckpt.NewWriter(&head)
		hw.Section("mobility.schedule")
		hw.Int(opts.N)
		for _, word := range src.rng.State() {
			hw.U64(word)
		}
		if err := hw.Flush(); err != nil {
			t.Fatal(err)
		}
		var enc [binary.MaxVarintLen64]byte
		if !bytes.HasPrefix(buf.Bytes(), head.Bytes()) || binary.PutVarint(enc[:], int64(epoch)) != 1 {
			t.Fatal("cannot overwrite the checkpoint's epoch in place")
		}
		buf.Bytes()[head.Len()] = enc[0]
		return ckpt.NewReader(&buf)
	}
	intact := func([]uint64) {}
	for name, tc := range map[string]struct {
		tamper func(edges []uint64)
		epoch  int
	}{
		"not ascending":         {func(e []uint64) { e[3], e[4] = e[4], e[3] }, 4},
		"duplicate":             {func(e []uint64) { e[4] = e[3] }, 4},
		"endpoint out of range": {func(e []uint64) { e[len(e)-1] = uint64(58)<<32 | 60 }, 4},
		"self loop":             {func(e []uint64) { e[0] = 0 }, 4},
		"negative epoch":        {intact, -3},
		"no epoch":              {intact, -1},
	} {
		err := New(Waypoint(0.02, 2), opts).RestoreFrom(snapshot(tc.tamper, tc.epoch))
		if err == nil || !strings.HasPrefix(err.Error(), "mobility: ") {
			t.Errorf("%s: corrupt checkpoint restored with error %v", name, err)
		}
	}
	fresh, want := New(Waypoint(0.02, 2), opts), New(Waypoint(0.02, 2), opts)
	if err := fresh.RestoreFrom(snapshot(intact, 4)); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}
	if !fresh.At(9).EqualCSR(want.At(9)) {
		t.Fatal("restored schedule diverged from the uninterrupted one")
	}
}
