// Package adversary implements the adversarial side of the mobile telephone
// model (§2): the dynamic graph is chosen by an adversary, constrained only
// by per-round connectivity and the stability factor τ. Where
// dyngraph.Regen redraws whole topologies and internal/mobility moves a
// physical crowd, this package *perturbs* an arbitrary base schedule — it
// cuts (and may inject) edges each epoch under a strategy. What it produces
// is the epoch's sorted effective edge list; the dyngraph.Stepper it shares
// with internal/mobility does the rest: repairs connectivity with
// representative-chain bridges (graph.Connector), refills the CSR in place
// from the list (graph.Patcher.Load), and reports every change as a
// dyngraph.Delta.
//
// Three strategy families are provided (see strategies.go):
//
//   - oblivious — precomputed worst-case schedules over a seeded
//     permutation: alternating bipartitions, rotating bottleneck bridges;
//   - adaptive — strategies that read the algorithm's live state through a
//     StateReader (token counts) and cut edges incident to token-heavy or
//     near-leader nodes, within a per-epoch edge budget;
//   - catastrophic — region blackouts, partition-then-heal cycles, and
//     targeted isolation of the top-k degree nodes.
//
// Determinism contract: an Engine's output is a pure function of (seed,
// base schedule, strategy, budget) plus — for adaptive strategies — the
// sequence of StateReader observations at epoch boundaries. Rounds are
// queried in ascending order by the simulation engine; with that access
// pattern every execution is byte-deterministic and checkpointable
// (Layout lays out the full mutable state, including the inner schedule's
// when it carries any). A strategy is a pure function of
// the Epoch it is handed, so the Stepper runs it only for the epochs a query
// reads: a rebound schedule's first query, at round R, perturbs R's epoch
// and the one before it. A backward query rewinds and jumps the same way,
// which reproduces oblivious and catastrophic strategies exactly; adaptive
// ones then read the *current* algorithm state, so stateful callers must
// not rewind mid-run (none do).
package adversary

import (
	"fmt"
	"slices"
	"sort"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// StateReader exposes the per-node algorithm state adaptive strategies may
// read. An unbound engine (no Bind call) sees zero tokens everywhere, which
// keeps throwaway replays — churn measurement, graphinfo — deterministic.
type StateReader interface {
	// TokenCount returns the number of gossip tokens node u currently knows.
	TokenCount(u int) int
}

// Options parameterizes an Engine.
type Options struct {
	// Tau is the stability factor: the adversary perturbs the topology at
	// the start of every τ-round epoch. Tau ≤ 0 perturbs the round-1
	// topology once and freezes it (τ = ∞) — a statically sabotaged graph,
	// which is what lets stable-topology algorithms (CrowdedBin) run under
	// an adversary.
	Tau int
	// Seed determines the adversary's private randomness (the vertex
	// permutation); independent of the base schedule's seed.
	Seed uint64
	// Budget caps the edges the adversary may cut per epoch; 0 = unlimited.
	Budget int
	// Rebuild bypasses graph.Patcher.Load and rebuilds the CSR from scratch
	// (graph.Builder: sort, deduplicate, allocate) every epoch. The two
	// modes produce byte-identical graphs; Rebuild exists as the oracle for
	// the equivalence quick-checks and the baseline for
	// BenchmarkAdversaryRound.
	Rebuild bool
}

// Engine is a dyngraph.DeltaDynamic that applies a Strategy over a base
// schedule. Construct with New, optionally Bind a StateReader, then hand it
// to the simulation engine like any other dynamic topology. The embedded
// dyngraph.Stepper does the τ-stepping (At, DeltaFor, Epoch, connectivity
// repair, churn count, CSR load, the jump on a far or backward query);
// what is the Engine's own is producing an epoch's effective edge list.
type Engine struct {
	*dyngraph.Stepper
	base   dyngraph.Dynamic
	lister lister // base, when it hands over its edge list; nil otherwise
	strat  Strategy
	seed   uint64
	budget int
	reader StateReader
	name   string

	perm     []int          // fixed seeded permutation (the oblivious schedules' substrate)
	pos      []int          // pos[u] = index of u in perm
	baseBuf  []uint64       // a graph base's edge list; a lister's is its own
	baseCSR  *graph.Patcher // a lister base's graph, for the strategies that ask (Epoch.Base)
	ops      Ops
	rank     []int32 // RankDesc output buffer
	score    []int   // RankDesc score buffer
	epochCtx Epoch
}

var _ dyngraph.DeltaDynamic = (*Engine)(nil)

// New wraps base — any Dynamic over the same vertex set, including a
// mobility schedule — with strat. Nothing is produced before the first At
// call (Epoch reports -1 until then, which the session layer polls to
// publish adversary-epoch events), so a StateReader bound between
// construction and round 1 already shapes the initial topology.
func New(base dyngraph.Dynamic, strat Strategy, o Options) *Engine {
	e := &Engine{base: base, strat: strat, seed: o.Seed, budget: o.Budget, pos: make([]int, base.N())}
	e.lister, _ = base.(lister)
	e.Stepper = dyngraph.NewStepper(base.N(), o.Tau, strat.Name(), o.Rebuild, dyngraph.Owner{
		Rewind:  func(int) { e.rewind() },
		Advance: func(int, int) {},
		Emit:    func(_, next int, buf []uint64) []uint64 { return e.produce(next, buf) },
		Commit:  e.commitBase,
		Ready:   e.stageable,
	})
	e.name = fmt.Sprintf("adv(%s,%s)+%s", strat.Name(), e.TauString(), base.Name())
	e.rewind()
	return e
}

// Bind attaches the algorithm-state view adaptive strategies read. Call it
// before the first round query; the simulation session layer does.
func (e *Engine) Bind(r StateReader) { e.reader = r }

// rewind rebuilds the fixed permutation from the seed — all the engine owns.
// The Stepper's advance half is empty: the base jumps itself when produce asks.
func (e *Engine) rewind() {
	permRng := prand.New(prand.Mix64(e.seed ^ 0x1f83_d9ab_fb41_bd6b))
	e.perm = permRng.Perm(e.N())
	for i, u := range e.perm {
		e.pos[u] = i
	}
}

// produce appends adversary epoch next's effective edge list: pull the base
// topology of the epoch's first round, run the strategy, and merge
// base \ cuts.
func (e *Engine) produce(next int, buf []uint64) []uint64 {
	edges, bg := e.baseList(e.FirstRound(next))

	// Strategy pass: collect cuts on the reused Ops.
	e.epochCtx = Epoch{
		E: next, N: e.N(), Edges: edges,
		Perm: e.perm, Pos: e.pos,
		Tokens: e.tokenCount,
		eng:    e, base: bg,
	}
	e.ops.reset(&e.epochCtx, e.budget)
	e.strat.Perturb(&e.epochCtx, &e.ops)
	slices.Sort(e.ops.cuts)

	// base \ cuts, both streams sorted.
	ci := 0
	for _, edge := range edges {
		for ci < len(e.ops.cuts) && e.ops.cuts[ci] < edge {
			ci++
		}
		if ci < len(e.ops.cuts) && e.ops.cuts[ci] == edge {
			continue
		}
		buf = append(buf, edge)
	}
	return buf
}

// lister is a base schedule that hands over round r's topology as a sorted
// packed edge list without building its CSR, and stages it with the
// Engine's own epoch: every dyngraph.Stepper-backed schedule. The slice
// belongs to the base and is valid until it is asked for a later epoch.
type lister interface {
	dyngraph.Stager
	List(r int) []uint64
}

// baseList returns the base topology of round r as a sorted packed edge
// list. A lister base (a mobility schedule) stages its epoch, which the
// Engine's commit commits (commitBase), and hands over its own buffer and no
// graph: a CSR of it is built only if the strategy asks (Epoch.Base). Any
// other base holds its graph already, which is returned beside the list
// flattened from it.
func (e *Engine) baseList(r int) ([]uint64, *graph.Graph) {
	if e.lister != nil {
		return e.lister.Stage(r), nil
	}
	g := e.base.At(r)
	e.baseBuf = g.AppendPackedEdges(e.baseBuf[:0])
	return e.baseBuf, g
}

// commitBase commits the base epoch the Engine's committed epoch was
// produced from, so that the two layers stay in the same epoch and a
// checkpoint finds the base where the Engine is.
func (e *Engine) commitBase() {
	if e.lister != nil {
		e.lister.List(e.FirstRound(e.Epoch()))
	}
}

// stageable is the Engine's Owner.Ready: an epoch can be produced ahead of
// its round only from a base that stages it too (the same τ, so the base's
// next epoch is the one read) and by a strategy that does not read the live
// algorithm state (adaptive).
func (e *Engine) stageable(next int) bool {
	a, ok := e.strat.(adaptive)
	return e.lister != nil && !(ok && a.readsTokens()) && e.lister.Stageable(e.FirstRound(next))
}

// tokenCount is the Epoch.Tokens implementation: the bound StateReader, or
// zero everywhere when unbound.
func (e *Engine) tokenCount(u int) int {
	if e.reader == nil {
		return 0
	}
	return e.reader.TokenCount(u)
}

// Name implements dyngraph.Dynamic.
func (e *Engine) Name() string { return e.name }

// Layout lays out the engine's mutable state — epoch index, the current
// effective edge list — plus the base schedule's state when it carries any
// (mobility trajectories). Strategies carry none. The four words after the
// node count are the seed state of a stream strategies were once handed and
// never drew from: written, and read and discarded, so that version-3
// checkpoints keep their bytes. A read installs the state in an engine
// freshly built with the same base, strategy and Options.
func (e *Engine) Layout(c ckpt.Fields) error {
	c.Section("adversary.engine")
	n := e.N()
	c.Int(&n)
	if err := c.Err(); err != nil {
		return err
	}
	if n != e.N() {
		return fmt.Errorf("adversary: checkpoint for %d nodes, engine has %d", n, e.N())
	}
	never := prand.New(prand.Mix64(e.seed ^ 0x7b14_6e5a_91cd_0fd3)).State()
	for i := range never {
		c.U64(&never[i])
	}
	epoch, edges := e.Epoch(), e.Edges()
	c.Int(&epoch)
	c.U64s(&edges)
	cp, ok := e.base.(dyngraph.Checkpointer)
	hasBase := ok
	c.Bool(&hasBase)
	if err := c.Err(); err != nil {
		return err
	}
	if hasBase != ok {
		return fmt.Errorf("adversary: checkpoint base state (%v) does not match rebuilt base (%v)", hasBase, ok)
	}
	if c.Reading() {
		if err := e.Install(epoch, edges); err != nil {
			return fmt.Errorf("adversary: %w", err)
		}
	}
	if hasBase {
		return cp.Layout(c)
	}
	return nil
}

// Epoch is the read view handed to a Strategy at the start of each epoch.
// It offers nothing to mutate or draw from: Perturb leaves no trace beyond
// the Ops it fills, which lets a forward jump skip the epochs nobody reads.
type Epoch struct {
	// E is the epoch index; 0 shapes the initial (round 1) topology.
	E int
	// N is the vertex count.
	N int
	// Edges is the epoch's unperturbed base topology as a sorted packed
	// edge list: u ascending, then v > u ascending (graph.CheckPacked).
	// Strategies that only cut pairs walk it; Base is the same topology as
	// a graph, for those that need a node's neighbors.
	Edges []uint64
	// Perm is a fixed seeded permutation of the vertices and Pos its
	// inverse — the precomputed substrate of the oblivious partitions.
	Perm, Pos []int
	// Tokens returns node u's current token count: the algorithm state an
	// adaptive adversary reads (0 everywhere when the engine is unbound).
	Tokens func(u int) int

	eng  *Engine
	base *graph.Graph // Base's graph, once built or handed over
}

// Base returns the epoch's unperturbed base topology — the graph of Edges.
// Over a lister base the first call loads a CSR of Edges into a Patcher of
// the Engine's own (so a staged epoch leaves the base's committed state
// alone); every other base holds its graph already. The graph is valid
// until the next epoch.
func (ep *Epoch) Base() *graph.Graph {
	if ep.base == nil {
		e := ep.eng
		if e.baseCSR == nil {
			e.baseCSR = graph.NewPatcher(ep.N)
		}
		ep.base = e.baseCSR.Load(ep.Edges, "base")
	}
	return ep.base
}

// RankDesc returns the vertices sorted by score descending, ties broken by
// ascending id — the deterministic node ranking the adaptive and top-k
// strategies target. The returned slice is an engine-owned buffer, valid
// until the next epoch.
func (ep *Epoch) RankDesc(score func(u int) int) []int32 {
	e := ep.eng
	if cap(e.rank) < ep.N {
		e.rank = make([]int32, ep.N)
		e.score = make([]int, ep.N)
	}
	e.rank = e.rank[:ep.N]
	e.score = e.score[:ep.N]
	for u := 0; u < ep.N; u++ {
		e.rank[u] = int32(u)
		e.score[u] = score(u)
	}
	sort.Sort(&rankSorter{ids: e.rank, score: e.score})
	return e.rank
}

// rankSorter orders ids by score descending, then id ascending.
type rankSorter struct {
	ids   []int32
	score []int
}

func (s *rankSorter) Len() int { return len(s.ids) }
func (s *rankSorter) Less(i, j int) bool {
	si, sj := s.score[s.ids[i]], s.score[s.ids[j]]
	if si != sj {
		return si > sj
	}
	return s.ids[i] < s.ids[j]
}
func (s *rankSorter) Swap(i, j int) { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }

// Ops collects a strategy's cuts, enforcing the per-epoch cut budget. All
// buffers are engine-owned and reused across epochs.
type Ops struct {
	ep     *Epoch
	budget int // 0 = unlimited
	cuts   []uint64
	seen   map[uint64]struct{} // CutNode's cuts this epoch
}

func (o *Ops) reset(ep *Epoch, budget int) {
	o.ep = ep
	o.budget = budget
	o.cuts = o.cuts[:0]
	clear(o.seen)
}

// Exhausted reports whether the epoch's cut budget is spent; strategies
// check it to stop their scans early.
func (o *Ops) Exhausted() bool {
	return o.budget > 0 && len(o.cuts) >= o.budget
}

// CutNode suppresses every base edge incident to u (within budget). Two
// adjacent cut nodes offer their shared edge twice — the one way a strategy
// can repeat a cut — so only CutNode deduplicates, and a shared edge costs
// one unit of budget.
func (o *Ops) CutNode(u int) {
	if !o.inRange(u) {
		return
	}
	if o.seen == nil {
		o.seen = make(map[uint64]struct{}, 64)
	}
	for _, v := range o.ep.Base().Adjacency(u) {
		if o.Exhausted() {
			return
		}
		key := graph.PackEdge(int32(u), v)
		if _, dup := o.seen[key]; !dup {
			o.seen[key] = struct{}{}
			o.cuts = append(o.cuts, key)
		}
	}
}

// inRange reports whether u names a vertex of the epoch's base topology.
func (o *Ops) inRange(u int) bool { return u >= 0 && u < o.ep.N }
