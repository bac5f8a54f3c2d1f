package tokenset

import "sort"

// Potential computes φ(r) = Σ_u (k − |T_u(r)|), the paper's progress
// measure (§5.1): the total number of (node, token) pairs still missing.
// sets holds one token set per node; k is the number of tokens in play.
func Potential(sets []*Set, k int) int {
	phi := 0
	for _, s := range sets {
		phi += k - s.Len()
	}
	return phi
}

// AllKnowAll reports whether gossip is solved: every node's set contains all
// k tokens.
func AllKnowAll(sets []*Set, k int) bool {
	for _, s := range sets {
		if s.Len() < k {
			return false
		}
	}
	return true
}

// EpsilonSolved reports whether ε-gossip (§7) is solved, using a sound
// (never false-positive) witness. The definition requires a set S of at
// least ⌈εn⌉ nodes such that every pair in S mutually knows each other's
// tokens. We check the generalization of Lemma 7.3 case 1: let C be the
// m = ⌈εn⌉ most-replicated tokens; let S be the nodes whose own token is in
// C and that know every token of C. Any two such nodes mutually know each
// other's tokens, so |S| ≥ m certifies a solution.
//
// own[i] gives node i's initial token id (ε-gossip assumes k = n, every node
// starts with exactly one token).
func EpsilonSolved(sets []*Set, own []int, eps float64) bool {
	n := len(sets)
	if n == 0 {
		return true
	}
	m := int(eps*float64(n) + 0.999999) // ⌈εn⌉
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	// Count replication of each token.
	counts := make(map[int]int)
	for _, s := range sets {
		for _, t := range s.Tokens() {
			counts[t]++
		}
	}
	type tc struct{ token, count int }
	all := make([]tc, 0, len(counts))
	//det: the sort below is a total order (count descending, then token ascending, tokens distinct).
	for t, c := range counts {
		all = append(all, tc{t, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].token < all[j].token
	})
	if len(all) < m {
		return false
	}
	top := make(map[int]bool, m)
	for _, e := range all[:m] {
		top[e.token] = true
	}
	// Nodes whose own token is in top and that know all of top.
	size := 0
	for i, s := range sets {
		if !top[own[i]] {
			continue
		}
		knowsAll := true
		//det: the loop only asks whether s holds every token of top.
		for t := range top {
			if !s.Has(t) {
				knowsAll = false
				break
			}
		}
		if knowsAll {
			size++
		}
	}
	return size >= m
}
