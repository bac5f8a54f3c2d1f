package dyngraph

import "mobilegossip/internal/graph"

// Delta is the edge difference between consecutive rounds' topologies: the
// edges that appeared and the edges that vanished, as (u, v) pairs with
// u < v. Empty slices mean the topology did not change entering the round.
type Delta struct {
	Added   [][2]int32
	Removed [][2]int32
}

// Change reports whether the delta alters the topology.
func (d Delta) Change() bool { return len(d.Added) > 0 || len(d.Removed) > 0 }

// DeltaDynamic is a Dynamic that can report the edge delta that produced
// round r's topology from round r-1's — the contract that lets the engine
// account per-round churn (EdgesAdded/EdgesRemoved, the churn meters).
// Deltas are reported, not applied: the schedules in internal/mobility and
// internal/adversary refill their CSR from the epoch's sorted edge list
// (graph.Patcher.Load), whose cost does not depend on the delta's size.
// DeltaFor(r) must agree with At: applying the delta to At(r-1) yields
// At(r), and DeltaFor(1) is empty (there is no round 0). The returned
// slices may alias schedule-internal buffers and are valid only until the
// schedule advances past round r.
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
// diffed graph against graph (skipped entirely when At returns the same
// *Graph, which is how Static and the epoch-caching schedules behave
// between changes). The replay advances d's state: for stateful schedules
// measure on a throwaway instance, not the one an engine is about to run.
func MeasureChurn(d Dynamic, rounds int) Churn {
	c := Churn{Rounds: rounds, EffectiveTau: Infinite}
	if rounds < 1 {
		c.Rounds = 0
		return c
	}
	dd, _ := d.(DeltaDynamic)
	prev := d.At(1)
	c.MinEdges, c.MaxEdges = prev.NumEdges(), prev.NumEdges()
	lastChange := 0
	for r := 2; r <= rounds; r++ {
		g := d.At(r)
		var added, removed int
		if dd != nil {
			delta := dd.DeltaFor(r)
			added, removed = len(delta.Added), len(delta.Removed)
		} else if g != prev {
			added, removed = countEdgeDiff(prev, g)
		}
		if added > 0 || removed > 0 {
			c.Changes++
			c.Added += int64(added)
			c.Removed += int64(removed)
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

// countEdgeDiff counts the edges of b missing from a (added) and the edges
// of a missing from b (removed) by merging the sorted adjacency ranges,
// counting each undirected edge once at its smaller endpoint.
func countEdgeDiff(a, b *graph.Graph) (added, removed int) {
	n := a.N()
	for u := 0; u < n; u++ {
		av, bv := a.Adjacency(u), b.Adjacency(u)
		i, j := 0, 0
		for i < len(av) && j < len(bv) {
			switch {
			case av[i] == bv[j]:
				i++
				j++
			case av[i] < bv[j]:
				if av[i] > int32(u) {
					removed++
				}
				i++
			default:
				if bv[j] > int32(u) {
					added++
				}
				j++
			}
		}
		for ; i < len(av); i++ {
			if av[i] > int32(u) {
				removed++
			}
		}
		for ; j < len(bv); j++ {
			if bv[j] > int32(u) {
				added++
			}
		}
	}
	return added, removed
}
