// Package mobility is the continuous-space motion layer under the mobile
// telephone model: instead of an abstract adversary redrawing the topology
// (dyngraph.Regen), nodes are smartphones moving through the unit square
// and the per-round topology is their unit-disk proximity graph — within
// radio range ⇔ adjacent. That is the physical situation the paper's
// scenarios (concerts, disasters, protests; §1) describe and its dynamic
// graph model abstracts (§2).
//
// The pipeline per motion epoch:
//
//  1. a Model advances every node's (x, y) position (random waypoint, Lévy
//     flight, group gathering, commuter schedules — see models.go) — in
//     every epoch, queried or not: the trajectory is these draws;
//  2. a spatial hash grid (cell side ≥ the radio radius r, so only the 3×3
//     cell neighborhood can hold neighbors) emits the unit-disk edges in
//     globally sorted order, O(n + m), reusing all buffers — only for an
//     epoch a query reads (on a jump, the last two). It walks the cells in
//     order and tests each cell's points against a half-stencil — the rest
//     of their own cell and the next cell in the row (one contiguous run of
//     the bucketing), then the three cells of the row above (another) — so
//     every pair is tested once, with no branch on the result; a counting
//     sort by smaller endpoint and an insertion sort of each endpoint's
//     short run put the kept pairs in order;
//  3. connectivity repair bridges the components (the model requires every
//     round's topology connected, §2): component representatives are
//     chained with virtual relay edges — the sparse long-range fallback
//     links (satellite/infrastructure hops) real smartphone meshes assume;
//  4. for a schedule read through At (the engine's own, not a base under
//     an adversary), the CSR is refilled in place from the sorted list
//     itself (graph.Patcher.Load): count, prefix-sum, fill, no sort, no
//     allocation, the same cost whether one edge moved or all of them; and
//     one merge walk against the previous epoch's list counts the delta.
//
// Steps 1 and 2 are this package's (Schedule.advance, Schedule.emit); steps
// 3 and 4, the epoch counter, the τ arithmetic and the jump on a
// far-forward or backward query are the dyngraph.Stepper every edge-list
// schedule shares. Schedules built
// from this package implement dyngraph.DeltaDynamic, so the engine gets
// per-round churn accounting, and graphinfo/harness can report effective
// stability. See DESIGN.md §8.
package mobility

import (
	"math"
	"slices"
)

// DefaultRadius returns the radio radius giving a mean unit-disk degree of
// ≈ 8 for n uniform points in the unit square (π·r²·n = 8): dense enough
// for useful gossip, sparse enough that the topology stays local.
func DefaultRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Sqrt(8 / (math.Pi * float64(n)))
}

// field owns every scratch buffer of the proximity pipeline, allocated once
// and reused across epochs. x and y are the positions the next scan reads:
// newField allocates a set, which a Schedule adopts as its first slot's,
// and Schedule.emit points them at the slot it scans.
type field struct {
	n      int
	r, r2  float64
	x, y   []float64
	side   int     // grid is side×side cells of edge ≥ r
	inv    float64 // side as a float, for coordinate→cell scaling
	caps   int     // side*side
	cellOf []int32 // cell index per point (computed per epoch)
	clOff  []int32 // CSR bucketing of points into cells: offsets
	clCur  []int32 //   fill cursors
	clPts  []int32 //   point ids, ascending within each cell
	// Packed per-cell copies of the positions (clPts order, x/y
	// interleaved so one candidate costs one cache line): the candidate
	// scan walks them sequentially instead of gathering x[v]/y[v] at
	// random indices — the difference between cache hits and misses on the
	// hot neighborhood loop.
	pxy []float64
	tmp []uint64 // pass-1 staging: candidate keys, the kept ones first
	deg []int32  // pass-2 counting-sort offsets by smaller endpoint (n+1)
}

func newField(n int, r float64) *field {
	if r <= 0 {
		r = DefaultRadius(n)
	}
	if r > 1 {
		r = 1
	}
	side := int(1 / r)
	if side < 1 {
		side = 1
	}
	if side*side > n+1 {
		// No point in more cells than points; a coarser grid only widens
		// the candidate scan, never misses a neighbor.
		side = int(math.Sqrt(float64(n))) + 1
	}
	cells := side * side
	return &field{
		n: n, r: r, r2: r * r,
		x: make([]float64, n), y: make([]float64, n),
		side: side, inv: float64(side), caps: cells,
		cellOf: make([]int32, n),
		clOff:  make([]int32, cells+1),
		clCur:  make([]int32, cells),
		clPts:  make([]int32, n),
		pxy:    make([]float64, 2*n),
		deg:    make([]int32, n+1),
	}
}

// computeEdges appends the unit-disk edges to out in canonical order: packed
// min<<32|max keys, ascending. Pass 1 walks the grid cell by cell and tests
// each unordered pair of nearby points exactly once: a cell's points against
// the later points of their own cell and the whole of the next cell in the
// row (one contiguous run of the bucketing), then against the three cells
// of the row above (another run). That half-stencil reaches every pair of
// cells at most one cell apart in x and in y exactly once. Every candidate's
// key is staged in tmp and kept by advancing the cursor by the distance
// test, so the inner loop has no data-dependent branch. Pass 2 is a counting
// sort of the kept keys by their smaller endpoint into out, then an
// insertion sort in which each key moves only within its endpoint's short
// run — no global sort.
func (f *field) computeEdges(out []uint64) []uint64 {
	n, side := f.n, f.side
	// Bucket points into cells (counts, prefix sums, fill). Filling in
	// ascending point order keeps every cell's point list ascending.
	for c := 0; c <= f.caps; c++ {
		f.clOff[c] = 0
	}
	for i := 0; i < n; i++ {
		cx := int(f.x[i] * f.inv)
		cy := int(f.y[i] * f.inv)
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		f.cellOf[i] = int32(cy*side + cx)
		f.clOff[f.cellOf[i]+1]++
	}
	for c := 1; c <= f.caps; c++ {
		f.clOff[c] += f.clOff[c-1]
	}
	for c := 0; c < f.caps; c++ {
		f.clCur[c] = 0
	}
	for i := 0; i < n; i++ {
		c := f.cellOf[i]
		slot := f.clOff[c] + f.clCur[c]
		f.clPts[slot] = int32(i)
		f.pxy[2*slot] = f.x[i]
		f.pxy[2*slot+1] = f.y[i]
		f.clCur[c]++
	}

	// Pass 1: stage every pair within range, each tested once.
	off, pts, pxy, r2 := f.clOff, f.clPts, f.pxy, f.r2
	tmp, k := f.tmp, 0
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			c := cy*side + cx
			end := off[c+1+b2i(cx+1 < side)] // own cell, then the next in the row
			var alo, ahi int32               // the row above: cells cx-1..cx+1
			if cy+1 < side {
				row := c + side
				alo, ahi = off[row-b2i(cx > 0)], off[row+1+b2i(cx+1 < side)]
			}
			for s := off[c]; s < off[c+1]; s++ {
				if need := k + int(end-s-1+ahi-alo); need > len(tmp) {
					grown := make([]uint64, max(need, 2*len(tmp))) // doubling, not append's 1.25×
					copy(grown, tmp[:k])
					tmp = grown
				}
				u := uint64(pts[s])
				xs, ys := pxy[2*s], pxy[2*s+1]
				lo, hi := s+1, end // this row's run, then the row above's
				for range 2 {
					for t := lo; t < hi; t++ {
						v := uint64(pts[t])
						ddx := pxy[2*t] - xs
						ddy := pxy[2*t+1] - ys
						tmp[k] = min(u, v)<<32 | max(u, v)
						k += b2i(ddx*ddx+ddy*ddy <= r2)
					}
					lo, hi = alo, ahi
				}
			}
		}
	}
	f.tmp = tmp

	// Pass 2: counting sort by smaller endpoint, then each endpoint's run.
	deg := f.deg
	clear(deg)
	for _, key := range tmp[:k] {
		deg[key>>32+1]++
	}
	for u := 1; u <= n; u++ {
		deg[u] += deg[u-1]
	}
	base := len(out)
	out = slices.Grow(out, k)[:base+k]
	dst := out[base:]
	for _, key := range tmp[:k] {
		u := key >> 32
		dst[deg[u]] = key
		deg[u]++
	}
	for i := 1; i < len(dst); i++ {
		v := dst[i]
		j := i - 1
		for j >= 0 && dst[j] > v {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = v
	}
	return out
}

// b2i is 1 for true and 0 for false; the compiler emits it as a SETcc, so a
// comparison counted through it costs no branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
