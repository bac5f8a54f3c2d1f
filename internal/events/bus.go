package events

import (
	"sync"
	"sync/atomic"
)

// Bus is a publish/subscribe hub for session events. One Bus watches
// one simulation; the session layer publishes, sinks and user code
// subscribe. All methods are safe for concurrent use.
//
// Every subscriber is synchronous: Publish runs each matching handler
// inline, in registration order, so every subscriber sees every event it
// matches — no queue, no drops. With no subscribers Publish is a single
// atomic load and never allocates. See the package documentation.
type Bus struct {
	active atomic.Int32 // subscriber count, read lock-free by Publish

	mu     sync.Mutex
	nextID uint64
	subs   []syncSub
}

type syncSub struct {
	id     uint64
	filter Filter
	fn     func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Publish delivers ev to every matching subscriber. With none attached
// (or a nil bus) it returns immediately — this is the hot-path case the
// zero-alloc contract pins.
func (b *Bus) Publish(ev Event) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	b.publish(ev)
}

func (b *Bus) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.subs {
		if b.subs[i].filter.Match(ev) {
			b.subs[i].fn(ev)
		}
	}
}

// SubscribeSync registers a subscriber: fn runs inline on the publishing
// goroutine for every event matching f, in registration order, and sees
// every matching event (no queue, no drops). Handlers must be fast and
// must not call back into the Bus. The returned cancel function detaches
// the subscriber; it is idempotent, and once it returns fn is not running
// and will not run again.
func (b *Bus) SubscribeSync(f Filter, fn func(Event)) (cancel func()) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.subs = append(b.subs, syncSub{id: id, filter: f, fn: fn})
	b.mu.Unlock()
	b.active.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			for i := range b.subs {
				if b.subs[i].id == id {
					b.subs = append(b.subs[:i], b.subs[i+1:]...)
					break
				}
			}
			b.mu.Unlock()
			b.active.Add(-1)
		})
	}
}
