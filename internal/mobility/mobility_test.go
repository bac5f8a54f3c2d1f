package mobility

// The subsystem's three invariants, quick-checked per round for every
// motion model (ISSUE 3 satellite): (1) the CSR loaded from the epoch's
// sorted edge list is byte-identical to a from-scratch rebuild, (2) every
// emitted topology is connected, (3) the topology changes only at τ-round
// epoch boundaries.

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"mobilegossip/internal/ckpt"
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

// allPairs is the scan's oracle: every pair u < v within range, tested with
// the scan's own distance expression, in canonical order.
func allPairs(f *field) []uint64 {
	var want []uint64
	for u := 0; u < f.n; u++ {
		for v := u + 1; v < f.n; v++ {
			dx, dy := f.x[v]-f.x[u], f.y[v]-f.y[u]
			if dx*dx+dy*dy <= f.r2 {
				want = append(want, graph.PackEdge(int32(u), int32(v)))
			}
		}
	}
	return want
}

// checkScan holds the scan to the all-pairs list, appended after a prefix
// the scan must leave alone (emit appends to a buffer), and returns the
// scan's whole buffer.
func checkScan(t *testing.T, name string, f *field, prefix []uint64) []uint64 {
	t.Helper()
	want := allPairs(f)
	keep := slices.Clone(prefix)
	got := f.computeEdges(prefix)
	if !slices.Equal(got[:len(keep)], keep) {
		t.Fatalf("%s: the scan overwrote the %d-key prefix of its buffer", name, len(keep))
	}
	if edges := got[len(keep):]; !slices.Equal(edges, want) {
		t.Fatalf("%s: n=%d r=%g (%d×%d cells): scan found %d edges, all pairs %d",
			name, f.n, f.r, f.side, f.side, len(edges), len(want))
	}
	return got
}

// TestScanMatchesAllPairs: the grid scan's list is the all-pairs unit-disk
// list, already in canonical order, on grids of one cell, of two and three
// cells a side (fewer than a neighbourhood is wide, or just as many), and of
// many; for two and three points; with points on the far border, whose
// coordinate scales to one cell past the grid; with coincident points; with
// pairs exactly r apart across a cell border; in the dense cells of a
// gathering crowd, epoch after epoch on the same buffers; and appended after
// a prefix.
func TestScanMatchesAllPairs(t *testing.T) {
	for _, tc := range []struct {
		n    int
		r    float64
		side int // the grid the case is there for; 0 = any
	}{
		{1, 0, 1}, {2, 2, 1}, {2, 0.01, 2}, {3, 0.01, 2}, {3, 0.5, 2},
		{40, 0.6, 1}, {60, 0.4, 2}, {200, 0.3, 3}, {500, 0, 0}, {500, 0.013, 0},
	} {
		f := newField(tc.n, tc.r)
		if tc.side != 0 && f.side != tc.side {
			t.Fatalf("n=%d r=%g: %d×%d cells, the case is for %d×%d", tc.n, tc.r, f.side, f.side, tc.side, tc.side)
		}
		rng := prand.New(uint64(tc.n))
		for i := range f.x {
			f.x[i], f.y[i] = rng.Float64(), rng.Float64()
		}
		f.x[0], f.y[tc.n-1] = 1, 1
		checkScan(t, "uniform", f, nil)
		if tc.n >= 6 { // three coincident pairs: in one cell, on the far corner, at the origin
			f.x[5], f.y[5] = f.x[2], f.y[2]
			f.x[3], f.y[3], f.x[4], f.y[4] = 1, 1, 1, 1
			f.x[1], f.y[1], f.x[tc.n-2], f.y[tc.n-2] = 0, 0, 0, 0
			checkScan(t, "coincident", f, []uint64{7, 3, 9})
		}
	}

	// Pairs exactly r = 13/64 apart (coordinates in 64ths, so every squared
	// distance is exact) across the cell borders of a 4×4 grid: across x,
	// across y, to the cell forward and up (a 5-12-13 triangle), to the cell
	// back and up, and two on the far border, one within its cell.
	f := newField(12, 13.0/64)
	if f.side != 4 {
		t.Fatalf("r = 13/64 gives %d×%d cells, want 4×4", f.side, f.side)
	}
	for i, p := range [][2]float64{{10, 40}, {23, 40}, {40, 8}, {40, 21}, {28, 28}, {33, 40},
		{52, 10}, {47, 22}, {64, 60}, {51, 60}, {64, 47}, {10, 40}} {
		f.x[i], f.y[i] = p[0]/64, p[1]/64
	}
	want := allPairs(f)
	for _, e := range [][2]int32{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {8, 10}} {
		dx, dy := f.x[e[1]]-f.x[e[0]], f.y[e[1]]-f.y[e[0]]
		if dx*dx+dy*dy != f.r2 || !slices.Contains(want, graph.PackEdge(e[0], e[1])) {
			t.Fatalf("%d-%d is not a tie the oracle keeps", e[0], e[1])
		}
	}
	checkScan(t, "ties", f, nil)

	// A gathering crowd packs its cells: the same field, stepped, scanned
	// into the previous epoch's list (prefix of three keys, spare capacity).
	const n = 400
	f = newField(n, 0)
	m, rng := Group(3, 0.9, 0.02), prand.New(11)
	m.Init(n, rng, f.x, f.y)
	buf := make([]uint64, 3, 4096)
	for epoch := 1; epoch <= 30; epoch++ {
		m.Step(epoch, rng, f.x, f.y)
		buf = checkScan(t, "group", f, buf[:3])
	}
	if most := slices.Max(f.clCur); most < 20 {
		t.Fatalf("the gathering crowd's fullest cell holds %d points, want a dense one", most)
	}
}

// FuzzScanMatchesAllPairs holds the scan to the all-pairs oracle on up to 64
// points read two bytes at a time onto a lattice of sixteenths, so that
// coincident points, points on the far border and pairs exactly r apart are
// common, and a radius of a whole number of sixty-fourths read from the
// first byte (every distance on the lattice is exact against it).
func FuzzScanMatchesAllPairs(f *testing.F) {
	f.Add([]byte{15, 0, 0, 4, 0, 4, 4, 0, 4, 16, 16, 16, 16})
	f.Add([]byte{19, 0, 0, 3, 4, 8, 8, 11, 12, 1, 15, 16, 0, 5, 5})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := float64(data[0]%64+1) / 64
		pos := data[1:]
		n := min(len(pos)/2, 64)
		fld := newField(n, r)
		for i := 0; i < n; i++ {
			fld.x[i] = float64(pos[2*i]%17) / 16
			fld.y[i] = float64(pos[2*i+1]%17) / 16
		}
		checkScan(t, "fuzz", fld, []uint64{1})
	})
}

// TestFrozenSchedule: Tau <= 0 is a τ = ∞ snapshot — same graph at every
// round, stability Infinite, still connected.
func TestFrozenSchedule(t *testing.T) {
	s := New(Waypoint(0.02, 2), Options{N: 150, Seed: 3})
	if s.TauString() != "τ=∞" {
		t.Fatalf("frozen schedule stability %q, want τ=∞", s.TauString())
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
// so a tampered list must fail a Layout read by error first. So must an epoch
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
		src.Layout(w.Fields())
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// The epoch follows the section name, n and the four RNG words; any
		// epoch in [-64, 63] is one varint byte.
		hw := ckpt.NewWriter(&head)
		hw.Section("mobility.schedule")
		hw.Int(opts.N)
		for _, word := range src.crowd[src.Slot()].rng.State() {
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
		err := New(Waypoint(0.02, 2), opts).Layout(snapshot(tc.tamper, tc.epoch).Fields())
		if err == nil || !strings.HasPrefix(err.Error(), "mobility: ") {
			t.Errorf("%s: corrupt checkpoint restored with error %v", name, err)
		}
	}
	fresh, want := New(Waypoint(0.02, 2), opts), New(Waypoint(0.02, 2), opts)
	if err := fresh.Layout(snapshot(intact, 4).Fields()); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}
	if !fresh.At(9).EqualCSR(want.At(9)) {
		t.Fatal("restored schedule diverged from the uninterrupted one")
	}
}

// TestRestoreRejectsPositionOutsideSquare: the scan buckets a node by its
// position, so a checkpoint that puts one outside the unit square, or at NaN,
// must fail a Layout read instead of resuming on another trajectory. The far
// border, 1, is a position the scan clamps into the last cell.
func TestRestoreRejectsPositionOutsideSquare(t *testing.T) {
	opts := Options{N: 60, Tau: 1, Seed: 4}
	restore := func(x, y float64) error {
		src := New(Waypoint(0.02, 2), opts)
		src.At(5)
		c := &src.crowd[src.Slot()]
		c.x[7], c.y[11] = x, y
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		src.Layout(w.Fields())
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		s := New(Waypoint(0.02, 2), opts)
		err := s.Layout(ckpt.NewReader(&buf).Fields())
		if err == nil {
			s.At(6)
		}
		return err
	}
	for _, v := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1), 3, math.Nextafter(1, 2)} {
		for _, xy := range [][2]float64{{v, 0.5}, {0.5, v}} {
			if err := restore(xy[0], xy[1]); err == nil || !strings.HasPrefix(err.Error(), "mobility: ") {
				t.Errorf("position (%g, %g) restored with error %v", xy[0], xy[1], err)
			}
		}
	}
	for _, xy := range [][2]float64{{1, 1}, {0, 0}, {1, 0.5}} {
		if err := restore(xy[0], xy[1]); err != nil {
			t.Errorf("position (%g, %g) refused: %v", xy[0], xy[1], err)
		}
	}
}

// TestConcurrentStageMatchesWalk: every model's schedule, its next epoch
// staged on another goroutine while the current graph is read, goes through
// the graphs, deltas and checkpoints a walked schedule does.
func TestConcurrentStageMatchesWalk(t *testing.T) {
	const rounds = 16
	opts := Options{N: 120, Tau: 1, Seed: 3}
	for name, mk := range testModels() {
		s, walk := New(mk(), opts), New(mk(), opts)
		for r := 1; r <= rounds; r++ {
			g, wg := s.At(r), walk.At(r)
			if !g.EqualCSR(wg) || s.DeltaFor(r) != walk.DeltaFor(r) || !bytes.Equal(checkpointOf(t, s), checkpointOf(t, walk)) {
				t.Fatalf("%s round %d: the staged schedule left the walk", name, r)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Stage(r + 1)
			}()
			for u := 0; u < opts.N; u++ {
				_ = g.Adjacency(u)
			}
			<-done
		}
	}
}

func checkpointOf(t *testing.T, s *Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	s.Layout(w.Fields())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
