package mobilegossip_test

import (
	"context"
	"fmt"

	"mobilegossip"
)

// The simplest complete use: gossip 4 tokens among 32 phones with the
// paper's SharedBit algorithm on a topology that changes every round.
func ExampleRun() {
	res, err := mobilegossip.Run(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit,
		N:         32,
		K:         4,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Tau:       1,
		Seed:      1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("solved:", res.Solved)
	fmt.Println("within O(kn) bound:", res.Rounds <= 4*32)
	// Output:
	// solved: true
	// within O(kn) bound: true
}

// ε-gossip (§7): every node starts with a token but only a majority
// quorum needs mutual knowledge — much cheaper than full gossip.
func ExampleRun_epsilonGossip() {
	res, err := mobilegossip.Run(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit,
		N:         32,
		K:         32, // ε-gossip assumes k = n
		Topology:  mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Tau:       1,
		Epsilon:   0.6,
		Seed:      1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("quorum reached:", res.Solved)
	// Output:
	// quorum reached: true
}

// Every session publishes its lifecycle on a typed event bus. Subscribe
// before running (here a handler collecting every event into a slice; a
// JSONL sink or a metrics collector attach the same way), then query what
// happened — here, how the potential φ fell over the first rounds and how
// the run ended.
func ExampleSimulation_Bus() {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit,
		N:         32,
		K:         4,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Tau:       1,
		Seed:      1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var recorded []mobilegossip.Event
	sim.Bus().SubscribeSync(mobilegossip.EventFilter{}, func(ev mobilegossip.Event) {
		recorded = append(recorded, ev)
	})
	if _, err := sim.Run(context.Background()); err != nil {
		fmt.Println("error:", err)
		return
	}

	early := mobilegossip.EventFilter{
		Types:    []mobilegossip.EventType{mobilegossip.EventRoundCompleted},
		MaxRound: 2,
	}
	for _, ev := range recorded {
		if early.Match(ev) {
			fmt.Printf("round %d: φ=%d\n", ev.Round, ev.Potential)
		}
	}
	end := recorded[len(recorded)-1]
	fmt.Println(end.Type, end.Solved)
	// Output:
	// round 1: φ=122
	// round 2: φ=120
	// session_end true
}

// ParseAlgorithm resolves the names printed by Algorithm.String, which is
// how cmd/gossipsim maps its -alg flag.
func ExampleParseAlgorithm() {
	alg, err := mobilegossip.ParseAlgorithm("crowdedbin")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(alg == mobilegossip.AlgCrowdedBin)
	// Output:
	// true
}
