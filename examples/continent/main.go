// Continent: a 10-million-phone emergency broadcast over a road mesh,
// driven by the deterministic shard-parallel engine.
//
// The tentpole scale target for PR 6: one execution an order of magnitude
// past metropolis (10M nodes vs 1M), completing in minutes because the
// round loop itself is sharded across cores — not just sweeps of small
// runs. A continent-sized road mesh (rows × cols grid, 10M intersections)
// carries one emergency rumor injected at a handful of cities, spread by
// PPUSH (internal/rumor) under the mobile telephone model. The scenario
// drives internal/mtm directly — the public API wraps the same engine,
// but at this scale we want the bare CSR loop and the rumor protocol's
// one-bit-per-node state (a gossip token arena would be pure overhead for
// a single rumor). Measured footprint: 246 B per phone peak RSS (CSR mesh
// plus the engine's per-node state; 246 MB at 1000×1000), so the 10M-phone
// default needs about 2.5 GB and about 16M phones fit in 4 GB.
//
// The run first times a short calibration window at workers=1 and at the
// full worker count on identical fresh engines — the informed counts must
// match exactly (the sharded engine's byte-determinism contract), and the
// ratio is the intra-run speedup on this machine — then runs the main
// measurement window sharded.
//
// Run with:
//
//	go run ./examples/continent                  # 2500×4000 = 10M phones
//	go run ./examples/continent -rows 1000 -cols 1000
//	go run ./examples/continent -workers 4       # explicit shard count
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/rumor"
)

// cities picks c rumor sources spread evenly across the mesh, offset into
// the interior so the wavefronts are disc-shaped rather than corner-pinned.
func cities(n, c int) []int {
	src := make([]int, 0, c)
	for i := 0; i < c; i++ {
		src = append(src, (i*n)/c+n/(2*c))
	}
	return src
}

// window steps a fresh engine over the mesh for `rounds` rounds at the
// given worker count and returns the protocol (for informed counts), the
// engine result and the elapsed wall time.
func window(g *graph.Graph, sources []int, seed uint64, rounds, workers int) (*rumor.Protocol, mtm.Result, time.Duration) {
	p := rumor.New(g.N(), sources)
	eng := mtm.NewEngine(dyngraph.NewStatic(g), p, mtm.Config{
		Seed: seed, MaxRounds: rounds, Workers: workers,
	})
	start := time.Now()
	for !eng.Finished() {
		if _, err := eng.Step(); err != nil {
			log.Fatal(err)
		}
	}
	return p, eng.Result(), time.Since(start)
}

func main() {
	var (
		rows    = flag.Int("rows", 2500, "mesh rows")
		cols    = flag.Int("cols", 4000, "mesh columns (2500×4000 = the 10M-phone continent)")
		nsrc    = flag.Int("cities", 64, "cities the alert is injected at")
		rounds  = flag.Int("rounds", 400, "rounds in the main measurement window")
		calib   = flag.Int("calib", 40, "rounds in the workers=1 vs workers=W calibration window")
		workers = flag.Int("workers", 0, "shard workers (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "run seed")
		short   = flag.Bool("short", false, "run a small mesh and window (for CI)")
	)
	flag.Parse()
	if *short {
		*rows, *cols, *rounds, *calib = 400, 500, 60, 15
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	n := *rows * *cols
	src := cities(n, *nsrc)

	fmt.Printf("continent: %d×%d road mesh, %d phones, alert from %d cities, %d shard workers\n",
		*rows, *cols, n, len(src), w)

	buildStart := time.Now()
	g := graph.Grid(*rows, *cols)
	fmt.Printf("mesh built in %v\n", time.Since(buildStart).Round(time.Millisecond))

	// Calibration: identical engines, workers=1 vs workers=w. The informed
	// counts must agree bit-for-bit; the wall-clock ratio is the intra-run
	// speedup the sharded engine buys on this machine.
	pSeq, _, dSeq := window(g, src, *seed, *calib, 1)
	pPar, _, dPar := window(g, src, *seed, *calib, w)
	if pSeq.InformedCount() != pPar.InformedCount() {
		log.Fatalf("determinism violated: %d informed sequential vs %d at %d workers",
			pSeq.InformedCount(), pPar.InformedCount(), w)
	}
	fmt.Printf("calibration (%d rounds): %v sequential, %v at %d workers — %.2fx, both %d informed\n",
		*calib, dSeq.Round(time.Millisecond), dPar.Round(time.Millisecond), w,
		dSeq.Seconds()/dPar.Seconds(), pPar.InformedCount())

	// Main window, sharded.
	p, res, elapsed := window(g, src, *seed, *rounds, w)
	fmt.Printf("\nmeasurement window: %d rounds in %v (%.1f rounds/s)\n",
		res.Rounds, elapsed.Round(time.Millisecond), float64(res.Rounds)/elapsed.Seconds())
	fmt.Printf("connections:        %d (%.0f/s)\n",
		res.Connections, float64(res.Connections)/elapsed.Seconds())
	fmt.Printf("rumor deliveries:   %d (%.0f/s)\n",
		res.TokensMoved, float64(res.TokensMoved)/elapsed.Seconds())
	fmt.Printf("informed:           %d / %d phones (%.2f%%)\n",
		p.InformedCount(), n, 100*float64(p.InformedCount())/float64(n))
	if res.Completed {
		fmt.Printf("rumor reached the whole continent in %d rounds\n", res.Rounds)
	}
	fmt.Printf("total wall time (incl. mesh build): %v\n", time.Since(buildStart).Round(time.Millisecond))
}
