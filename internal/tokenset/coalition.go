package tokenset

import "sort"

// Coalition is the object at the heart of the paper's ε-gossip analysis
// (Lemma 7.3): a set of nodes, closed under token-set equality (no member
// shares its exact token set with a non-member), whose size lies in
// [(ε/2)·n, ε·n]. Theorem 7.4 shows each round either has such a coalition
// — in which case Lemma 7.1 guarantees a large matching across its
// boundary and Lemma 5.2 makes many of those edges productive — or
// ε-gossip is already solved.
type Coalition struct {
	// Members are the node indices in the coalition.
	Members []int
	// Classes is the number of distinct token-set equivalence classes the
	// coalition is built from (the |C| of the paper's F(r) subset).
	Classes int
}

// Size returns the number of member nodes.
func (c Coalition) Size() int { return len(c.Members) }

// FindCoalition implements the three-case argument of Lemma 7.3 for a
// round's token-set configuration. It returns either solved = true —
// meaning some token set is owned by more than ⌈εn⌉ nodes, which (under
// the ε-gossip assumption that every node starts with its own token)
// certifies that ε-gossip is already solved — or a coalition whose size
// lies in [(ε/2)·n, ε·n].
//
// The three cases, exactly as in the paper's proof:
//
//  1. q_max > εn: the nodes owning the most-frequent set mutually know
//     each other's tokens — solved.
//  2. (ε/2)·n ≤ q_max ≤ εn: that single equivalence class is a coalition.
//  3. q_max < (ε/2)·n: greedily add classes in decreasing frequency until
//     the total first exceeds (ε/2)·n; because every step adds fewer than
//     (ε/2)·n nodes, the total lands inside [(ε/2)·n, ε·n].
func FindCoalition(sets []*Set, eps float64) (Coalition, bool) {
	n := len(sets)
	if n == 0 {
		return Coalition{}, true
	}

	classes := classify(sets)
	sort.Slice(classes, func(i, j int) bool {
		if len(classes[i]) != len(classes[j]) {
			return len(classes[i]) > len(classes[j])
		}
		return classes[i][0] < classes[j][0] // deterministic tie-break
	})

	qmax := len(classes[0])
	limit := eps * float64(n)
	half := limit / 2

	switch {
	case float64(qmax) > limit:
		// Case 1: solved.
		return Coalition{}, true
	case float64(qmax) >= half:
		// Case 2: one class suffices.
		return Coalition{Members: append([]int(nil), classes[0]...), Classes: 1}, false
	default:
		// Case 3: greedy accumulation in decreasing order of size.
		var members []int
		used := 0
		for _, cl := range classes {
			members = append(members, cl...)
			used++
			if float64(len(members)) >= half {
				break
			}
		}
		return Coalition{Members: members, Classes: used}, false
	}
}

// classify groups node indices by token-set equality.
func classify(sets []*Set) [][]int {
	type bucket struct {
		set   *Set
		nodes []int
	}
	buckets := make(map[uint64][]*bucket)
	var order []*bucket
	for i, s := range sets {
		h := s.hash()
		var found *bucket
		for _, b := range buckets[h] {
			if b.set.Equal(s) {
				found = b
				break
			}
		}
		if found == nil {
			found = &bucket{set: s}
			buckets[h] = append(buckets[h], found)
			order = append(order, found)
		}
		found.nodes = append(found.nodes, i)
	}
	out := make([][]int, len(order))
	for i, b := range order {
		out[i] = b.nodes
	}
	return out
}
