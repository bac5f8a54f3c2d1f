package dyngraph

import "mobilegossip/internal/graph"

// Delta is the edge difference between consecutive rounds' topologies, as
// the two counts its readers read: how many edges appeared and how many
// vanished. Zero counts mean the topology did not change entering the round.
type Delta struct {
	Added, Removed int
}

// Change reports whether the delta alters the topology.
func (d Delta) Change() bool { return d.Added > 0 || d.Removed > 0 }

// DeltaDynamic is a Dynamic that can report the edge delta that produced
// round r's topology from round r-1's — the contract that lets the engine
// account per-round churn (EdgesAdded/EdgesRemoved, the churn meters).
// Deltas are reported, not applied: the schedules in internal/mobility and
// internal/adversary refill their CSR from the epoch's sorted edge list
// (graph.Patcher.Load), whose cost does not depend on the delta's size.
// DeltaFor(r) must agree with At: the counts equal the set difference of
// At(r-1) and At(r), and DeltaFor(1) is zero (there is no round 0).
type DeltaDynamic interface {
	Dynamic
	DeltaFor(r int) Delta
}

// Churn summarizes the measured per-round edge churn of a dynamic schedule
// over a round window — the dynamic-graph counterpart of the static α/Δ/D
// numbers (graphinfo reports both).
type Churn struct {
	// Rounds is the measured window 1..Rounds.
	Rounds int
	// Changes counts the rounds (from round 2 on) whose topology differed
	// from the previous round's.
	Changes int
	// Added and Removed total the churned edges over the window.
	Added, Removed int64
	// EffectiveTau is the smallest observed gap between consecutive
	// topology changes — the stability factor the schedule actually
	// exhibited, as opposed to the τ it promises. Infinite when the window
	// saw at most one change.
	EffectiveTau int
	// MinEdges and MaxEdges bound the per-round edge counts.
	MinEdges, MaxEdges int
}

// MeasureChurn replays rounds 1..rounds of d and tallies the edge churn.
// DeltaDynamic schedules are read through DeltaFor; any other Dynamic is
// diffed packed edge list against packed edge list (skipped entirely when
// At returns the same *Graph, which is how Static and the epoch-caching
// schedules behave between changes). The replay advances d's state: for
// stateful schedules measure on a throwaway instance, not the one an engine
// is about to run.
func MeasureChurn(d Dynamic, rounds int) Churn {
	c := Churn{Rounds: rounds, EffectiveTau: Infinite}
	if rounds < 1 {
		c.Rounds = 0
		return c
	}
	dd, _ := d.(DeltaDynamic)
	prev := d.At(1)
	c.MinEdges, c.MaxEdges = prev.NumEdges(), prev.NumEdges()
	var prevEdges, edges []uint64 // diff path only: prev's list, and a spare
	if dd == nil {
		prevEdges = prev.AppendPackedEdges(nil)
	}
	lastChange := 0
	for r := 2; r <= rounds; r++ {
		g := d.At(r)
		var delta Delta
		if dd != nil {
			delta = dd.DeltaFor(r)
		} else if g != prev {
			edges = g.AppendPackedEdges(edges[:0])
			delta.Added, delta.Removed = graph.DiffPacked(prevEdges, edges)
			prevEdges, edges = edges, prevEdges
		}
		if delta.Change() {
			c.Changes++
			c.Added += int64(delta.Added)
			c.Removed += int64(delta.Removed)
			if lastChange > 0 && r-lastChange < c.EffectiveTau {
				c.EffectiveTau = r - lastChange
			}
			lastChange = r
		}
		if m := g.NumEdges(); m < c.MinEdges {
			c.MinEdges = m
		} else if m > c.MaxEdges {
			c.MaxEdges = m
		}
		prev = g
	}
	return c
}
