package events

// subscribers returns the number of attached subscribers, which the cancel
// tests count.
func (b *Bus) subscribers() int { return int(b.active.Load()) }

// types enumerates every event type, in declaration (lifecycle) order.
func types() []Type {
	out := make([]Type, 0, numTypes-1)
	for t := Type(1); t < numTypes; t++ {
		out = append(out, t)
	}
	return out
}
