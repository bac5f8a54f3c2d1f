package adversary

import "fmt"

// Strategy decides, once per adversary epoch, which edges to suppress via
// the Ops collector. Strategies are pure functions of their Epoch view —
// they hold no mutable state of their own and Perturb leaves no trace
// beyond the Ops it fills, which is what makes the Engine's checkpoint
// (epoch + edge list) complete and lets a forward jump run only the epochs
// a query reads.
type Strategy interface {
	// Name labels the strategy for schedule names and tables.
	Name() string
	// Perturb registers the epoch's cuts on ops.
	Perturb(ep *Epoch, ops *Ops)
}

// ---------------------------------------------------------------------------
// Oblivious strategies: precomputed worst-case schedules, blind to the
// algorithm (fixed before the execution, as §2 defines the adversary).

// Bipartition alternates between two fixed cuts of the vertex set — the
// halves of a seeded permutation on even epochs, its even/odd interleaving
// on odd epochs — and suppresses every base edge crossing the active cut.
// After repair the two sides hang on a single bottleneck bridge, and the
// alternation stops the algorithm from amortizing against one stable cut.
func Bipartition() Strategy { return bipartition{} }

type bipartition struct{}

func (bipartition) Name() string { return "bipartition" }

func (bipartition) Perturb(ep *Epoch, ops *Ops) {
	half := ep.N / 2
	odd := ep.E%2 == 1
	side := func(u int) int {
		p := ep.Pos[u]
		if odd {
			return p % 2
		}
		if p < half {
			return 0
		}
		return 1
	}
	cutCrossing(ep, ops, func(u, v int) bool { return side(u) != side(v) })
}

// cutCrossing cuts, in list order and within budget, every base edge {u, v}
// with crosses(u, v). The list runs u ascending, then v > u ascending — the
// order of a walk over each vertex's higher neighbors in the graph — so a
// budget keeps the cuts that walk would keep.
func cutCrossing(ep *Epoch, ops *Ops, crosses func(u, v int) bool) {
	for _, e := range ep.Edges {
		if crosses(int(e>>32), int(uint32(e))) {
			ops.cuts = append(ops.cuts, e) // the list holds each edge once: no dedup
			if ops.Exhausted() {
				return
			}
		}
	}
}

// Bridges shatters the vertex set into `groups` permutation classes whose
// membership rotates by one position per epoch, suppressing every
// inter-group edge: the repaired topology is a chain of dense islands
// joined by single bottleneck bridges — the low-α regime of the paper's
// 1/α terms, sustained forever.
func Bridges(groups int) Strategy {
	if groups < 2 {
		groups = 2
	}
	return bridges{groups: groups}
}

type bridges struct{ groups int }

func (s bridges) Name() string { return fmt.Sprintf("bridges(%d)", s.groups) }

func (s bridges) Perturb(ep *Epoch, ops *Ops) {
	gid := func(u int) int { return (ep.Pos[u] + ep.E) % s.groups }
	cutCrossing(ep, ops, func(u, v int) bool { return gid(u) != gid(v) })
}

// ---------------------------------------------------------------------------
// Adaptive strategies: read the algorithm's live token state through the
// engine's StateReader and spend the per-epoch budget where it hurts.

// adaptive marks a strategy that reads Epoch.Tokens — the live algorithm
// state, which exists only once the round before the epoch has run. Such an
// epoch is never staged ahead of its round (Engine.stageable); every other
// strategy is a pure function of the seed, the base and the epoch.
type adaptive interface{ readsTokens() bool }

func (cutRich) readsTokens() bool { return true }
func (isolate) readsTokens() bool { return true }

// CutRich ranks the nodes by current token count (descending, ties by id)
// and severs the token-heaviest nodes' edges first, spending the whole
// budget: the adversary starves exactly the nodes best positioned to
// spread. With an unlimited budget it degenerates to cutting everything —
// the repaired topology is then the 0–1–…–(n−1) relay chain.
func CutRich() Strategy { return cutRich{} }

type cutRich struct{}

func (cutRich) Name() string { return "cutrich" }

func (cutRich) Perturb(ep *Epoch, ops *Ops) {
	for _, u := range ep.RankDesc(ep.Tokens) {
		if ops.Exhausted() {
			return
		}
		ops.CutNode(int(u))
	}
}

// Isolate targets the current leader — the token-richest node, ties by id —
// and cuts every edge incident to it and to its base-graph neighbors: a
// surgical strike on the near-leader region, within budget.
func Isolate() Strategy { return isolate{} }

type isolate struct{}

func (isolate) Name() string { return "isolate" }

func (isolate) Perturb(ep *Epoch, ops *Ops) {
	leader, best := 0, ep.Tokens(0)
	for u := 1; u < ep.N; u++ {
		if t := ep.Tokens(u); t > best {
			leader, best = u, t
		}
	}
	ops.CutNode(leader)
	for _, v := range ep.Base().Adjacency(leader) {
		if ops.Exhausted() {
			return
		}
		ops.CutNode(int(v))
	}
}

// ---------------------------------------------------------------------------
// Catastrophic events: large, episodic disruptions.

// Blackout cycles through `regions` permutation classes of the vertex set;
// for the first half of each `period`-epoch cycle one region is dark —
// every edge incident to it is suppressed, its nodes dangling off repair
// bridges — then the region heals and the blackout moves on.
func Blackout(regions, period int) Strategy {
	if regions < 1 {
		regions = 1
	}
	if period < 2 {
		period = 2
	}
	return blackout{regions: regions, period: period}
}

type blackout struct{ regions, period int }

func (s blackout) Name() string {
	return fmt.Sprintf("blackout(%d/%d)", s.regions, s.period)
}

func (s blackout) Perturb(ep *Epoch, ops *Ops) {
	if ep.E%s.period >= (s.period+1)/2 {
		return // healed phase
	}
	dark := (ep.E / s.period) % s.regions
	for u := 0; u < ep.N && !ops.Exhausted(); u++ {
		if ep.Pos[u]*s.regions/ep.N == dark {
			ops.CutNode(u)
		}
	}
}

// Partition alternates `period`-epoch cycles of near-partition and healing:
// during the first half every edge crossing the fixed permutation
// bipartition is suppressed, leaving two islands joined by one repair
// bridge; during the second half the base topology passes through intact.
func Partition(period int) Strategy {
	if period < 2 {
		period = 2
	}
	return partition{period: period}
}

type partition struct{ period int }

func (s partition) Name() string { return fmt.Sprintf("partition(%d)", s.period) }

func (s partition) Perturb(ep *Epoch, ops *Ops) {
	if ep.E%s.period >= (s.period+1)/2 {
		return // healed phase
	}
	half := ep.N / 2
	cutCrossing(ep, ops, func(u, v int) bool { return (ep.Pos[u] < half) != (ep.Pos[v] < half) })
}

// TopK isolates the k highest-degree nodes of the epoch's base topology
// (ties by id): the hubs the base graph leans on are severed every epoch —
// the targeted-attack half of the classic robustness experiment, aimed at
// exactly the Δ the paper's bounds are parameterized by.
func TopK(k int) Strategy {
	if k < 1 {
		k = 1
	}
	return topk{k: k}
}

type topk struct{ k int }

func (s topk) Name() string { return fmt.Sprintf("topk(%d)", s.k) }

func (s topk) Perturb(ep *Epoch, ops *Ops) {
	ranked := ep.RankDesc(ep.Base().Degree)
	for i := 0; i < s.k && i < len(ranked); i++ {
		if ops.Exhausted() {
			return
		}
		ops.CutNode(int(ranked[i]))
	}
}
