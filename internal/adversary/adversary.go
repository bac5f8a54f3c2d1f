// Package adversary implements the adversarial side of the mobile telephone
// model (§2): the dynamic graph is chosen by an adversary, constrained only
// by per-round connectivity and the stability factor τ. Where
// dyngraph.Regen redraws whole topologies and internal/mobility moves a
// physical crowd, this package *perturbs* an arbitrary base schedule — it
// cuts (and may inject) edges each epoch under a strategy, repairs
// connectivity with the same representative-chain bridges the mobility
// field uses (graph.Connector), refills the CSR in place from the resulting
// sorted edge list (graph.Patcher.Load), and reports every change as a
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
// (CheckpointTo/RestoreFrom serialize the full mutable state, including the
// inner schedule's when it carries any). A backward query replays the
// schedule from its seed, which reproduces oblivious and catastrophic
// strategies exactly; adaptive strategies replay against the *current*
// algorithm state, so stateful callers must not rewind mid-run (none do).
package adversary

import (
	"fmt"
	"math"
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
	// Seed determines the adversary's private randomness (permutations,
	// strategy coin flips); independent of the base schedule's seed.
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

// checkpointable is the stateful-schedule contract the Engine forwards to
// its base (mobility.Schedule satisfies it); pure-function bases (Static,
// Regen) serialize nothing.
type checkpointable interface {
	CheckpointTo(w *ckpt.Writer)
	RestoreFrom(r *ckpt.Reader) error
}

// Engine is a dyngraph.DeltaDynamic that applies a Strategy over a base
// schedule. Construct with New, optionally Bind a StateReader, then hand it
// to the simulation engine like any other dynamic topology.
type Engine struct {
	base   dyngraph.Dynamic
	strat  Strategy
	n      int
	tau    int // dyngraph.Infinite when frozen
	seed   uint64
	budget int
	reb    bool
	reader StateReader
	name   string

	rng      *prand.RNG
	perm     []int // fixed seeded permutation (the oblivious schedules' substrate)
	pos      []int // pos[u] = index of u in perm
	epoch    int   // current epoch; -1 = nothing computed yet (lazy first epoch)
	baseBuf  []uint64
	eff      [2][]uint64 // double-buffered sorted effective edge lists
	cur      int
	tmp      []uint64
	ops      Ops
	conn     *graph.Connector
	patcher  *graph.Patcher
	g        *graph.Graph
	delta    dyngraph.Delta
	added    [][2]int32
	removed  [][2]int32
	rank     []int32 // RankDesc output buffer
	score    []int   // RankDesc score buffer
	epochCtx Epoch
}

var _ dyngraph.DeltaDynamic = (*Engine)(nil)

// New wraps base — any Dynamic over the same vertex set, including a
// mobility schedule — with strat. The first epoch is computed lazily at the
// first At call, so a StateReader bound between construction and round 1
// already shapes the initial topology.
func New(base dyngraph.Dynamic, strat Strategy, o Options) *Engine {
	tau := o.Tau
	if tau <= 0 {
		tau = dyngraph.Infinite
	}
	n := base.N()
	e := &Engine{
		base: base, strat: strat, n: n, tau: tau,
		seed: o.Seed, budget: o.Budget, reb: o.Rebuild,
		conn: graph.NewConnector(n), patcher: graph.NewPatcher(n),
	}
	tauStr := fmt.Sprintf("τ=%d", tau)
	if tau == dyngraph.Infinite {
		tauStr = "τ=∞"
	}
	e.name = fmt.Sprintf("adv(%s,%s)+%s", strat.Name(), tauStr, base.Name())
	e.reset()
	return e
}

// Bind attaches the algorithm-state view adaptive strategies read. Call it
// before the first round query; the simulation session layer does.
func (e *Engine) Bind(r StateReader) { e.reader = r }

// Epoch returns the perturbation epoch the engine currently sits in, or
// -1 before the lazily computed first epoch. The session layer polls it
// after every round to publish adversary-epoch events.
func (e *Engine) Epoch() int { return e.epoch }

// reset returns the engine to its pre-round-1 state: fresh RNG, fixed
// permutation rebuilt from the seed, no epoch computed.
func (e *Engine) reset() {
	e.rng = prand.New(prand.Mix64(e.seed ^ 0x7b14_6e5a_91cd_0fd3))
	permRng := prand.New(prand.Mix64(e.seed ^ 0x1f83_d9ab_fb41_bd6b))
	e.perm = permRng.Perm(e.n)
	if e.pos == nil {
		e.pos = make([]int, e.n)
	}
	for i, u := range e.perm {
		e.pos[u] = i
	}
	e.epoch = -1
	e.eff[0] = e.eff[0][:0]
	e.eff[1] = e.eff[1][:0]
	e.cur = 0
	e.delta = dyngraph.Delta{}
}

func (e *Engine) epochOf(r int) int {
	if r < 1 {
		r = 1
	}
	if e.tau == dyngraph.Infinite {
		return 0
	}
	return (r - 1) / e.tau
}

// At implements dyngraph.Dynamic. The returned graph aliases engine buffers
// and is valid until the engine advances to a later epoch.
func (e *Engine) At(r int) *graph.Graph {
	target := e.epochOf(r)
	if target < e.epoch {
		e.reset()
	}
	for e.epoch < target {
		e.step()
	}
	return e.g
}

// step advances one adversary epoch: pull the base topology, run the
// strategy, repair connectivity, diff (for the reported delta), and load the
// CSR (or rebuild).
func (e *Engine) step() {
	next := e.epoch + 1
	baseRound := 1
	if e.tau != dyngraph.Infinite {
		baseRound = next*e.tau + 1
	}
	bg := e.base.At(baseRound)
	e.baseBuf = bg.AppendPackedEdges(e.baseBuf[:0])

	// Strategy pass: collect cuts/links on the reused Ops.
	e.ops.reset(bg, e.budget)
	e.epochCtx = Epoch{
		E: next, N: e.n, Base: bg, RNG: e.rng,
		Perm: e.perm, Pos: e.pos,
		Tokens: e.tokenCount,
		eng:    e,
	}
	e.strat.Perturb(&e.epochCtx, &e.ops)
	slices.Sort(e.ops.cuts)
	slices.Sort(e.ops.links)
	e.ops.links = slices.Compact(e.ops.links)

	// Effective list: (base \ cuts) ∪ links, all streams sorted.
	out := e.tmp[:0]
	ci := 0
	for _, edge := range e.baseBuf {
		for ci < len(e.ops.cuts) && e.ops.cuts[ci] < edge {
			ci++
		}
		if ci < len(e.ops.cuts) && e.ops.cuts[ci] == edge {
			continue
		}
		out = append(out, edge)
	}
	if len(e.ops.links) > 0 {
		merged := e.eff[1-e.cur][:0]
		i, j := 0, 0
		for i < len(out) && j < len(e.ops.links) {
			switch {
			case out[i] == e.ops.links[j]:
				merged = append(merged, out[i])
				i++
				j++
			case out[i] < e.ops.links[j]:
				merged = append(merged, out[i])
				i++
			default:
				merged = append(merged, e.ops.links[j])
				j++
			}
		}
		merged = append(merged, out[i:]...)
		merged = append(merged, e.ops.links[j:]...)
		e.tmp = out
		out = merged
	} else {
		// No injections: swap the buffers so out lands in the next slot.
		e.tmp = e.eff[1-e.cur]
	}
	out = e.conn.Connect(out)

	prev := e.eff[e.cur]
	e.added, e.removed = graph.DiffPacked(prev, out, e.added[:0], e.removed[:0])
	e.eff[1-e.cur] = out
	e.cur = 1 - e.cur
	e.epoch = next
	e.delta = dyngraph.Delta{}
	if next > 0 { // epoch 0 shapes round 1: there is no earlier graph to differ from
		e.delta = dyngraph.Delta{Added: e.added, Removed: e.removed}
	}
	e.loadGraph()
}

// loadGraph makes e.g the CSR of the current effective edge list: filled
// into the patcher's spare buffers straight from the sorted list or, in
// Rebuild mode, built from scratch.
func (e *Engine) loadGraph() {
	edges, name := e.eff[e.cur], fmt.Sprintf("%s@e%d", e.strat.Name(), e.epoch)
	if e.reb {
		e.g = graph.BuildPacked(e.n, edges, name)
		return
	}
	e.g = e.patcher.Load(edges, name)
}

// tokenCount is the Epoch.Tokens implementation: the bound StateReader, or
// zero everywhere when unbound.
func (e *Engine) tokenCount(u int) int {
	if e.reader == nil {
		return 0
	}
	return e.reader.TokenCount(u)
}

// DeltaFor implements dyngraph.DeltaDynamic: the delta is nonzero exactly
// at the first round of an epoch whose perturbation changed some edge.
func (e *Engine) DeltaFor(r int) dyngraph.Delta {
	e.At(r)
	if e.epoch <= 0 || e.tau == dyngraph.Infinite || r != e.epoch*e.tau+1 {
		return dyngraph.Delta{}
	}
	return e.delta
}

// N implements dyngraph.Dynamic.
func (e *Engine) N() int { return e.n }

// Stability implements dyngraph.Dynamic.
func (e *Engine) Stability() int { return e.tau }

// Name implements dyngraph.Dynamic.
func (e *Engine) Name() string { return e.name }

// Strategy returns the engine's strategy (for display and tests).
func (e *Engine) Strategy() Strategy { return e.strat }

// CheckpointTo serializes the engine's mutable state — RNG stream, epoch
// index, the current effective edge list — plus the base schedule's state
// when it carries any (mobility trajectories). The CSR is loaded from the
// edge list on restore, the same way every epoch's is. Strategies are pure
// functions of the serialized state and carry none of their own.
func (e *Engine) CheckpointTo(w *ckpt.Writer) {
	w.Section("adversary.engine")
	w.Int(e.n)
	st := e.rng.State()
	w.U64(st[0])
	w.U64(st[1])
	w.U64(st[2])
	w.U64(st[3])
	w.Int(e.epoch)
	w.U64s(e.eff[e.cur])
	cp, ok := e.base.(checkpointable)
	w.Bool(ok)
	if ok {
		cp.CheckpointTo(w)
	}
}

// RestoreFrom loads a CheckpointTo stream into an engine freshly built with
// the same base, strategy and Options.
func (e *Engine) RestoreFrom(r *ckpt.Reader) error {
	r.Section("adversary.engine")
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != e.n {
		return fmt.Errorf("adversary: checkpoint for %d nodes, engine has %d", n, e.n)
	}
	e.rng.SetState([4]uint64{r.U64(), r.U64(), r.U64(), r.U64()})
	epoch := r.Int()
	edges := r.U64s()
	hasBase := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	// Validate the edge list here, where a corrupt stream can still fail
	// by name: Load panics on an out-of-range endpoint or a non-canonical
	// order, and a list that slipped past it would sit in e.eff and skew
	// every later diff and connectivity repair.
	if err := graph.CheckPacked(edges, e.n); err != nil {
		return fmt.Errorf("adversary: checkpoint edge list: %w", err)
	}
	cp, ok := e.base.(checkpointable)
	if hasBase != ok {
		return fmt.Errorf("adversary: checkpoint base state (%v) does not match rebuilt base (%v)", hasBase, ok)
	}
	if hasBase {
		if err := cp.RestoreFrom(r); err != nil {
			return err
		}
	}
	e.cur = 0
	e.eff[0] = append(e.eff[0][:0], edges...)
	e.eff[1] = e.eff[1][:0]
	e.epoch = epoch
	e.delta = dyngraph.Delta{}
	if epoch < 0 {
		e.g = nil
		return nil
	}
	e.loadGraph()
	return nil
}

// Epoch is the read view handed to a Strategy at the start of each epoch.
type Epoch struct {
	// E is the epoch index; 0 shapes the initial (round 1) topology.
	E int
	// N is the vertex count.
	N int
	// Base is the epoch's unperturbed base topology.
	Base *graph.Graph
	// RNG is the adversary's seeded stream; its state is checkpointed, so
	// strategies may draw freely.
	RNG *prand.RNG
	// Perm is a fixed seeded permutation of the vertices and Pos its
	// inverse — the precomputed substrate of the oblivious partitions.
	Perm, Pos []int
	// Tokens returns node u's current token count: the algorithm state an
	// adaptive adversary reads (0 everywhere when the engine is unbound).
	Tokens func(u int) int

	eng *Engine
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

// Ops collects a strategy's perturbations, enforcing the per-epoch cut
// budget. All buffers are engine-owned and reused across epochs.
type Ops struct {
	base   *graph.Graph
	budget int // 0 = unlimited
	cuts   []uint64
	links  []uint64
	seen   map[uint64]struct{}
}

func (o *Ops) reset(base *graph.Graph, budget int) {
	o.base = base
	o.budget = budget
	o.cuts = o.cuts[:0]
	o.links = o.links[:0]
	if o.seen == nil {
		o.seen = make(map[uint64]struct{}, 64)
	} else {
		clear(o.seen)
	}
}

// Exhausted reports whether the epoch's cut budget is spent; strategies
// check it to stop their scans early.
func (o *Ops) Exhausted() bool {
	return o.budget > 0 && len(o.cuts) >= o.budget
}

// Remaining returns the cuts still available this epoch (MaxInt when
// unlimited).
func (o *Ops) Remaining() int {
	if o.budget <= 0 {
		return math.MaxInt
	}
	return o.budget - len(o.cuts)
}

// Cut suppresses the base edge {u, v} for the epoch. Non-edges and
// duplicate cuts are ignored and consume no budget; cuts past the budget
// are dropped.
func (o *Ops) Cut(u, v int) {
	if o.Exhausted() || u == v {
		return
	}
	if !o.base.HasEdge(u, v) {
		return
	}
	o.cutPresent(int32(u), int32(v))
}

// cutPresent registers a cut of an edge known to be present in the base —
// the in-package strategies derive every cut from Base.Adjacency, so the
// membership probe Cut pays for arbitrary callers is skipped on this hot
// per-epoch path.
func (o *Ops) cutPresent(u, v int32) {
	if o.Exhausted() {
		return
	}
	key := graph.PackEdge(u, v)
	if _, dup := o.seen[key]; dup {
		return
	}
	o.seen[key] = struct{}{}
	o.cuts = append(o.cuts, key)
}

// CutNode suppresses every base edge incident to u (within budget).
func (o *Ops) CutNode(u int) {
	for _, v := range o.base.Adjacency(u) {
		if o.Exhausted() {
			return
		}
		o.cutPresent(int32(u), v)
	}
}

// Link injects the edge {u, v} for the epoch (free: the budget meters
// destruction, and the connectivity repair injects bridges anyway).
// Self-loops are ignored; edges already present merge away.
func (o *Ops) Link(u, v int) {
	if u == v || u < 0 || v < 0 || u >= o.base.N() || v >= o.base.N() {
		return
	}
	o.links = append(o.links, graph.PackEdge(int32(u), int32(v)))
}
