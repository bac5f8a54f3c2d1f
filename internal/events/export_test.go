package events

// subscribers returns the number of attached subscribers, which the cancel
// tests count.
func (b *Bus) subscribers() int { return int(b.active.Load()) }
