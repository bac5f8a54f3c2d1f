package events

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFilterMatch(t *testing.T) {
	cases := []struct {
		name string
		f    Filter
		ev   Event
		want bool
	}{
		{"zero filter matches anything",
			Filter{}, Event{Type: TypeRoundCompleted, Round: 7}, true},
		{"type allow-list hit",
			Filter{Types: []Type{TypeChurnApplied, TypeRoundCompleted}},
			Event{Type: TypeRoundCompleted}, true},
		{"type allow-list miss",
			Filter{Types: []Type{TypeChurnApplied}},
			Event{Type: TypeRoundCompleted}, false},
		{"min round inclusive",
			Filter{MinRound: 5}, Event{Type: TypeRoundCompleted, Round: 5}, true},
		{"below min round",
			Filter{MinRound: 5}, Event{Type: TypeRoundCompleted, Round: 4}, false},
		{"max round inclusive",
			Filter{MaxRound: 5}, Event{Type: TypeRoundCompleted, Round: 5}, true},
		{"above max round",
			Filter{MaxRound: 5}, Event{Type: TypeRoundCompleted, Round: 6}, false},
		{"window and type both hold",
			Filter{Types: []Type{TypeSessionEnd}, MinRound: 2, MaxRound: 9},
			Event{Type: TypeSessionEnd, Round: 3}, true},
		{"window holds but type misses",
			Filter{Types: []Type{TypeSessionEnd}, MinRound: 2, MaxRound: 9},
			Event{Type: TypeRoundCompleted, Round: 3}, false},
		{"zero bounds leave round 0 events visible",
			Filter{Types: []Type{TypeSessionStart}}, Event{Type: TypeSessionStart}, true},
	}
	for _, tc := range cases {
		if got := tc.f.Match(tc.ev); got != tc.want {
			t.Errorf("%s: Match = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFilterMatchAllocs(t *testing.T) {
	f := Filter{Types: []Type{TypeRoundCompleted}, MinRound: 1, MaxRound: 1 << 30}
	ev := Event{Type: TypeRoundCompleted, Round: 42}
	if n := testing.AllocsPerRun(100, func() { f.Match(ev) }); n != 0 {
		t.Fatalf("Filter.Match allocated %.1f times per call", n)
	}
}

func TestTypeNamesRoundTrip(t *testing.T) {
	types := Types()
	if len(types) != 10 {
		t.Fatalf("Types() = %d types, want 10", len(types))
	}
	for _, ty := range types {
		name := ty.String()
		if strings.Contains(name, "Type(") {
			t.Fatalf("type %d has no wire name", ty)
		}
		back, err := ParseType(name)
		if err != nil || back != ty {
			t.Fatalf("ParseType(%q) = %v, %v; want %v", name, back, err, ty)
		}
	}
	if _, err := ParseType("no_such_event"); err == nil {
		t.Fatal("ParseType accepted an unknown name")
	}
	if got := Type(0).String(); got != "Type(0)" {
		t.Fatalf("Type(0).String() = %q", got)
	}
}

func TestBusPublishSubscribeSync(t *testing.T) {
	b := NewBus()
	var got []Event
	cancel := b.SubscribeSync(Filter{Types: []Type{TypeRoundCompleted}}, func(ev Event) {
		got = append(got, ev)
	})
	defer cancel()

	b.Publish(Event{Type: TypeSessionStart, N: 10})
	b.Publish(Event{Type: TypeRoundCompleted, Round: 1, Potential: 9})
	b.Publish(Event{Type: TypeChurnApplied, Round: 2})
	b.Publish(Event{Type: TypeRoundCompleted, Round: 2, Potential: 7})

	if len(got) != 2 {
		t.Fatalf("delivered %d events, want the 2 round_completed (filtered-out events leaked)", len(got))
	}
	if got[0].Round != 1 || got[1].Round != 2 {
		t.Fatalf("rounds = %d, %d; want 1, 2", got[0].Round, got[1].Round)
	}
	if got[1].Potential != 7 {
		t.Fatalf("potential = %d, want 7", got[1].Potential)
	}
}

func TestBusNilAndEmptyPublish(t *testing.T) {
	var nilBus *Bus
	nilBus.Publish(Event{Type: TypeRoundCompleted}) // must not panic
	if nilBus.Subscribers() != 0 {
		t.Fatal("nil bus reported subscribers")
	}

	b := NewBus()
	if n := testing.AllocsPerRun(100, func() {
		b.Publish(Event{Type: TypeRoundCompleted, Round: 3})
	}); n != 0 {
		t.Fatalf("Publish with no subscribers allocated %.1f times per call", n)
	}
}

// TestBusSlowSubscriberIsLossless: a subscriber slower than the
// publisher slows it down instead of losing events, and Publish returns
// only once every matching handler has run.
func TestBusSlowSubscriberIsLossless(t *testing.T) {
	b := NewBus()
	var slow, fast []int
	cancelSlow := b.SubscribeSync(Filter{}, func(ev Event) {
		time.Sleep(time.Millisecond)
		slow = append(slow, ev.Round)
	})
	defer cancelSlow()
	cancelFast := b.SubscribeSync(Filter{}, func(ev Event) { fast = append(fast, ev.Round) })
	defer cancelFast()

	for r := 1; r <= 10; r++ {
		b.Publish(Event{Type: TypeRoundCompleted, Round: r})
		if len(slow) != r || slow[r-1] != r || len(fast) != r {
			t.Fatalf("after Publish(round %d): slow saw %v, fast saw %v", r, slow, fast)
		}
	}
}

func TestBusSyncOrderAndCancel(t *testing.T) {
	b := NewBus()
	var order []string
	cancelA := b.SubscribeSync(Filter{}, func(Event) { order = append(order, "a") })
	cancelB := b.SubscribeSync(Filter{}, func(Event) { order = append(order, "b") })

	b.Publish(Event{Type: TypeRoundCompleted, Round: 1})
	if strings.Join(order, "") != "ab" {
		t.Fatalf("sync delivery order = %v, want registration order a,b", order)
	}
	if b.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d, want 2", b.Subscribers())
	}

	cancelA()
	cancelA() // idempotent
	b.Publish(Event{Type: TypeRoundCompleted, Round: 2})
	if strings.Join(order, "") != "abb" {
		t.Fatalf("after cancel, order = %v, want a,b,b", order)
	}
	cancelB()
	if b.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after cancels, want 0", b.Subscribers())
	}
}

// TestSubscribeSyncCancelWaitsForHandler: once cancel returns, the
// handler is not running and never runs again — what lets JSONLSink.Close
// flush its writer without a lock of its own.
func TestSubscribeSyncCancelWaitsForHandler(t *testing.T) {
	b := NewBus()
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	cancel := b.SubscribeSync(Filter{}, func(ev Event) {
		calls.Add(1)
		close(entered)
		<-release
	})
	published := make(chan struct{})
	go func() {
		b.Publish(Event{Type: TypeRoundCompleted, Round: 1})
		close(published)
	}()
	<-entered
	canceled := make(chan struct{})
	go func() {
		cancel()
		close(canceled)
	}()
	select {
	case <-canceled:
		t.Fatal("cancel returned while the handler was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-canceled
	<-published
	cancel() // idempotent
	if b.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after cancel, want 0", b.Subscribers())
	}
	b.Publish(Event{Type: TypeRoundCompleted, Round: 2})
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want once (not after cancel)", n)
	}
}

// TestBusConcurrentPublish races many publishers against subscribe /
// close churn; run under -race (the race-concurrent CI job does).
func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup

	collected := NewRing(1024)
	detach := collected.Attach(b, Filter{})
	defer detach()

	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 1; r <= 500; r++ {
				b.Publish(Event{Type: TypeRoundCompleted, Round: r, Potential: p})
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var seen atomic.Int64
			cancel := b.SubscribeSync(Filter{Types: []Type{TypeRoundCompleted}}, func(Event) { seen.Add(1) })
			cancel()
		}
	}()
	wg.Wait()

	if got := collected.Len() + int(collected.Evicted()); got != 4*500 {
		t.Fatalf("sync ring saw %d events, want %d (sync delivery is lossless)", got, 4*500)
	}
}
