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

	// The evening of the blackout: a bus subscriber takes the host down,
	// canceling the run a third of the way in.
	blackoutAt := want.Rounds / 3
	ctx, cancel := context.WithCancel(context.Background())
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rounds := mobilegossip.EventFilter{Types: []mobilegossip.EventType{mobilegossip.EventRoundCompleted}}
	sim.Bus().SubscribeSync(rounds, func(ev mobilegossip.Event) {
		if ev.Round == blackoutAt {
			cancel()
		}
	})
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

	// A new process, possibly days later: revive and finish, printing the
	// recovery's potential curve from the revived session's bus.
	revived, err := mobilegossip.Resume(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovery potential curve:")
	curve := mobilegossip.EventFilter{Types: []mobilegossip.EventType{
		mobilegossip.EventSessionStart, mobilegossip.EventRoundCompleted}}
	revived.Bus().SubscribeSync(curve, func(ev mobilegossip.Event) {
		if ev.Type == mobilegossip.EventSessionStart || ev.Round%20 == 0 || ev.Done {
			fmt.Printf("  round %5d  φ=%d\n", ev.Round, ev.Potential)
		}
	})
	got, err := revived.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run finished at round %d\n", got.Rounds)

	// The whole point: the blackout was invisible to the results.
	if got != want {
		log.Fatalf("resumed run diverged from the uninterrupted reference:\n got %+v\nwant %+v", got, want)
	}
	fmt.Println("\nresumed results are byte-identical to the uninterrupted run —")
	fmt.Println("rounds, connections, control bits, token movements, edge churn: all equal.")
}
