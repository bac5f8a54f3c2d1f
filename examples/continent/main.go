// Continent: a 10-million-phone emergency broadcast over a road mesh.
//
// One execution an order of magnitude past metropolis (10M nodes vs 1M).
// A continent-sized road mesh (rows × cols grid, 10M intersections)
// carries one emergency rumor injected at a handful of cities, spread by
// PPUSH (internal/rumor) under the mobile telephone model. The scenario
// drives internal/mtm directly — the public API wraps the same engine,
// but at this scale we want the bare CSR loop and the rumor protocol's
// one-bit-per-node state (a gossip token arena would be pure overhead for
// a single rumor). Measured footprint: 246 B per phone peak RSS (CSR mesh
// plus the engine's per-node state; 246 MB at 1000×1000), so the 10M-phone
// default needs about 2.5 GB and about 16M phones fit in 4 GB.
//
// Run with:
//
//	go run ./examples/continent                  # 2500×4000 = 10M phones
//	go run ./examples/continent -rows 1000 -cols 1000
package main

import (
	"flag"
	"fmt"
	"log"
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

func main() {
	var (
		rows   = flag.Int("rows", 2500, "mesh rows")
		cols   = flag.Int("cols", 4000, "mesh columns (2500×4000 = the 10M-phone continent)")
		nsrc   = flag.Int("cities", 64, "cities the alert is injected at")
		rounds = flag.Int("rounds", 400, "rounds in the measurement window")
		seed   = flag.Uint64("seed", 1, "run seed")
		short  = flag.Bool("short", false, "run a small mesh and window (for CI)")
	)
	flag.Parse()
	if *short {
		*rows, *cols, *rounds = 400, 500, 60
	}
	n := *rows * *cols
	src := cities(n, *nsrc)

	fmt.Printf("continent: %d×%d road mesh, %d phones, alert from %d cities\n",
		*rows, *cols, n, len(src))

	buildStart := time.Now()
	g := graph.Grid(*rows, *cols)
	fmt.Printf("mesh built in %v\n", time.Since(buildStart).Round(time.Millisecond))

	p := rumor.New(n, src)
	eng := mtm.NewEngine(dyngraph.NewStatic(g), p, mtm.Config{Seed: *seed, MaxRounds: *rounds})
	start := time.Now()
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
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
