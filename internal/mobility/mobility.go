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
//  2. a seeded spatial hash grid (cell side = the radio radius r, so only
//     the 3×3 cell neighborhood can hold neighbors: three contiguous runs,
//     a grid row's cells being adjacent in the bucketing) emits the
//     unit-disk edges in globally sorted order, O(n + m), reusing all
//     buffers — only for an epoch a query reads (on a jump, the last two);
//  3. connectivity repair bridges the components (the model requires every
//     round's topology connected, §2): component representatives are
//     chained with virtual relay edges — the sparse long-range fallback
//     links (satellite/infrastructure hops) real smartphone meshes assume;
//  4. the CSR is refilled in place from the sorted list itself
//     (graph.Patcher.Load): count, prefix-sum, fill, no sort, no
//     allocation, the same cost whether one edge moved or all of them; and
//     when DeltaFor is asked (by the engine, of its own schedule only) one
//     merge walk against the previous epoch's list counts the delta.
//
// Steps 1 and 2 are this package's (Schedule.advance, Schedule.emit); steps
// 3 and 4, the epoch counter, the τ arithmetic and the jump on a
// far-forward or backward query are the dyngraph.Stepper every edge-list
// schedule shares. Schedules built
// from this package implement dyngraph.DeltaDynamic, so the engine gets
// per-round churn accounting, and graphinfo/harness can report effective
// stability. See DESIGN.md §8.
package mobility

import "math"

// DefaultRadius returns the radio radius giving a mean unit-disk degree of
// ≈ 8 for n uniform points in the unit square (π·r²·n = 8): dense enough
// for useful gossip, sparse enough that the topology stays local.
func DefaultRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Sqrt(8 / (math.Pi * float64(n)))
}

// field owns the positions and every scratch buffer of the proximity
// pipeline. All buffers are allocated once and reused across epochs.
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
	pxy  []float64
	cand []int32 // per-point neighbor candidates (v > u)
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
	}
}

// computeEdges emits the unit-disk edges in globally sorted packed order:
// scanning points u ascending and keeping only candidates v > u makes the
// list sorted by u, and sorting each point's (short) candidate run makes it
// sorted within u — no global sort.
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

	r2 := f.r2
	pts, pxy := f.clPts, f.pxy
	for u := 0; u < n; u++ {
		c := int(f.cellOf[u])
		cx, cy := c%side, c/side
		// The (up to) three cells of a grid row are adjacent in clOff, so
		// the neighborhood is three contiguous runs of clPts/pxy.
		x0, x1 := max(cx-1, 0), min(cx+1, side-1)
		cand := f.cand[:0]
		xu, yu := f.x[u], f.y[u]
		for ny := max(cy-1, 0); ny <= min(cy+1, side-1); ny++ {
			row := ny * side
			for s, hi := f.clOff[row+x0], f.clOff[row+x1+1]; s < hi; s++ {
				if int(pts[s]) <= u {
					continue
				}
				ddx := pxy[2*s] - xu
				ddy := pxy[2*s+1] - yu
				if ddx*ddx+ddy*ddy <= r2 {
					cand = append(cand, pts[s])
				}
			}
		}
		sortI32(cand)
		for _, v := range cand {
			out = append(out, uint64(u)<<32|uint64(v))
		}
		f.cand = cand // keep any growth
	}
	return out
}

// sortI32 sorts a short int32 slice ascending; candidate runs are a handful
// of points at realistic densities, so insertion sort wins.
func sortI32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
