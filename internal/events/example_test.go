package events_test

import (
	"fmt"

	"mobilegossip/internal/events"
)

// SubscribeSync with a filter: only round_completed events inside a
// round window reach the handler, which runs inline on the publishing
// goroutine; everything else passes the subscriber by.
func ExampleBus_SubscribeSync() {
	bus := events.NewBus()
	cancel := bus.SubscribeSync(events.Filter{
		Types:    []events.Type{events.TypeRoundCompleted},
		MinRound: 2,
	}, func(ev events.Event) {
		fmt.Printf("%s round=%d φ=%d\n", ev.Type, ev.Round, ev.Potential)
	})
	defer cancel()

	bus.Publish(events.Event{Type: events.TypeSessionStart, N: 8, K: 4})
	for round := 1; round <= 3; round++ {
		bus.Publish(events.Event{
			Type: events.TypeRoundCompleted, Round: round, Potential: 10 - round,
		})
	}
	// Output:
	// round_completed round=2 φ=8
	// round_completed round=3 φ=7
}

// A Ring retains the most recent events in memory and answers filtered
// queries while recording continues — the query API behind "what just
// happened" tooling.
func ExampleRing() {
	bus := events.NewBus()
	ring := events.NewRing(128)
	detach := ring.Attach(bus, events.Filter{})
	defer detach()

	for round := 1; round <= 4; round++ {
		if round == 3 {
			bus.Publish(events.Event{
				Type: events.TypeChurnApplied, Round: round, EdgesAdded: 2, EdgesRemoved: 1,
			})
		}
		bus.Publish(events.Event{Type: events.TypeRoundCompleted, Round: round})
	}

	churn := ring.Events(events.Filter{Types: []events.Type{events.TypeChurnApplied}})
	fmt.Println("recorded:", ring.Len())
	for _, ev := range churn {
		fmt.Printf("churn at round %d: +%d/-%d edges\n", ev.Round, ev.EdgesAdded, ev.EdgesRemoved)
	}
	// Output:
	// recorded: 5
	// churn at round 3: +2/-1 edges
}
