// Metropolis: city-scale alert dissemination on a fixed round budget.
//
// The ROADMAP's north star is a simulator that handles city-sized
// proximity meshes at hardware speed. The workload lives in
// scenarios/metropolis.yaml: a random-geometric city of phones with
// simultaneously injected alerts, SharedBit with 2-bit tags, run on a
// hard max_rounds budget — the expect block asserts how much of the wave
// a fixed budget delivers (min_coverage) rather than full completion.
//
// This program is a thin pointer at that file: it runs the exact scenario
// CI pins (scenarios/golden/metropolis.table.txt), so its output is
// byte-identical to `gossipsim run scenarios/metropolis.yaml`. Edit the
// YAML, not this file, to change the workload; for throughput
// measurement at the full 100k–1M scale, use gossipsim directly
// (`gossipsim -alg sharedbit -graph rgg -n 1000000 -k 16 -maxrounds 500`).
// Measured footprint of that command (peak RSS, k = 16, token sets backed
// for ids 1…16): 0.62 KB per phone — 63 MB at n = 100k, 620 MB at n = 1M —
// so about 6M phones fit in 4 GB. (Before the sets were backed for the
// assigned id span the arena alone asked for N/8 bytes per phone: 125 GB
// at n = N = 1M.)
//
// Run with:
//
//	go run ./examples/metropolis
//	go run ./examples/metropolis -remote 127.0.0.1:7373   # same bytes, via gossipd
package main

import (
	"flag"
	"fmt"
	"os"

	"mobilegossip/internal/scenario"
)

func main() {
	flag.Bool("short", false, "accepted for CI compatibility; the committed scenario is already CI-sized")
	remote := flag.String("remote", "", "run against the gossipd daemon at this address instead of in-process")
	flag.Parse()

	path, err := scenario.Locate("metropolis")
	if err == nil {
		err = scenario.RunFile(path, scenario.Options{
			Remote: *remote, Out: os.Stdout, Log: os.Stderr,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metropolis:", err)
		os.Exit(1)
	}
}
