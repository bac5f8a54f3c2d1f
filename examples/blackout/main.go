// Blackout: checkpoint a live mesh simulation, lose the process, resume
// byte-identically.
//
// The festival scenario's premise is that the *phones* have no
// infrastructure. This scenario is about the simulation host: a long
// metropolis-scale run is hours into an adversarial schedule when the
// machine goes down. With the session API that is not a disaster — a
// Simulation can snapshot its complete deterministic state (every token
// set, every RNG stream, the full mobility trajectory) at any round
// boundary, and Resume revives it in a fresh process with byte-identical
// future.
//
// The example stages exactly that: a chat wave spreading through a moving
// festival crowd is canceled mid-run ("the blackout"), checkpointed into a
// byte buffer, revived from those bytes as if by a new process, and run to
// completion — then verified, field by field, against an uninterrupted
// reference run of the same seed.
//
// Run with:
//
//	go run ./examples/blackout          # 600 phones
//	go run ./examples/blackout -short   # CI-sized crowd
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"

	"mobilegossip"
)

// blackout is the observer that takes the host down: it cancels the run's
// context once the given round has executed.
type blackout struct {
	mobilegossip.NopObserver
	round  int
	cancel context.CancelFunc
}

func (b blackout) EndRound(s mobilegossip.RoundStats) {
	if s.Round == b.round {
		b.cancel()
	}
}

func main() {
	short := flag.Bool("short", false, "run a smaller crowd (for CI)")
	flag.Parse()

	crowd, messages := 600, 8
	if *short {
		crowd, messages = 150, 4
	}
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit,
		N:         crowd,
		K:         messages,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.015, Pause: 2},
		Tau:       1,
		Seed:      21,
	}

	// Reference: the run that never went down.
	want, err := mobilegossip.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !want.Solved {
		log.Fatalf("reference run did not finish in %d rounds", want.Rounds)
	}
	fmt.Printf("reference run: %d phones, %d posts, solved in %d rounds (%d connections)\n",
		crowd, messages, want.Rounds, want.Connections)

	// The evening of the blackout: cancel the run a third of the way in.
	blackoutAt := want.Rounds / 3
	ctx, cancel := context.WithCancel(context.Background())
	cfgWatch := cfg
	cfgWatch.Observers = []mobilegossip.Observer{blackout{round: blackoutAt, cancel: cancel}}
	sim, err := mobilegossip.New(cfgWatch)
	if err != nil {
		log.Fatal(err)
	}
	partial, err := sim.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected a canceled run, got %v", err)
	}
	fmt.Printf("blackout at round %d: φ=%d, %d connections so far\n",
		partial.Rounds, sim.Potential(), partial.Connections)

	// Snapshot the dying process's state.
	var snapshot bytes.Buffer
	if err := sim.Checkpoint(&snapshot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d bytes (version %d)\n", snapshot.Len(), mobilegossip.CheckpointVersion)

	// A new process, possibly days later: revive and finish, watching the
	// recovery through the observer pipeline.
	revived, err := mobilegossip.Resume(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	sampler := mobilegossip.NewPotentialSampler(20)
	revived.Observe(sampler)
	got, err := revived.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run finished at round %d\n", got.Rounds)
	fmt.Println("recovery potential curve:")
	for _, s := range sampler.Samples() {
		fmt.Printf("  round %5d  φ=%d\n", s.Round, s.Potential)
	}

	// The whole point: the blackout was invisible to the results.
	if got != want {
		log.Fatalf("resumed run diverged from the uninterrupted reference:\n got %+v\nwant %+v", got, want)
	}
	fmt.Println("\nresumed results are byte-identical to the uninterrupted run —")
	fmt.Println("rounds, connections, control bits, token movements, edge churn: all equal.")
}
