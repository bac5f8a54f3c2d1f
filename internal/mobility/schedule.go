package mobility

import (
	"fmt"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
)

// Options parameterizes a Schedule.
type Options struct {
	// N is the number of nodes (phones).
	N int
	// Tau is the stability factor: motion epochs are τ rounds long, so the
	// topology changes at most every τ rounds as the model requires.
	// Tau ≤ 0 freezes the initial placement (τ = ∞): a static snapshot of
	// the crowd, which is what lets stable-topology algorithms (CrowdedBin)
	// run on mobility-generated proximity graphs.
	Tau int
	// Radius is the radio range; ≤ 0 selects DefaultRadius(N).
	Radius float64
	// Seed fully determines the trajectory and therefore every topology.
	Seed uint64
	// Rebuild bypasses graph.Patcher.Load and rebuilds the CSR from scratch
	// (graph.Builder: sort, deduplicate, allocate) every epoch. The two
	// modes produce byte-identical graphs; Rebuild exists as the oracle for
	// the equivalence quick-checks and the baseline for
	// BenchmarkDynamicRound.
	Rebuild bool
}

// Schedule drives a Model and emits its unit-disk proximity graph as a
// dyngraph.DeltaDynamic: per round the engine sees a connected topology
// whose CSR is refilled in place from the epoch's sorted edge list, and
// changes are reported as edge deltas. Rounds are meant to be queried in
// ascending order (the engine's access pattern); a query behind the current
// epoch deterministically replays the trajectory from the seed.
type Schedule struct {
	n      int
	tau    int // dyngraph.Infinite when frozen
	radius float64
	seed   uint64
	model  Model
	opts   Options

	rng     *prand.RNG
	field   *field
	patcher *graph.Patcher
	epoch   int // current epoch index; rounds (epoch·τ)+1 … (epoch+1)·τ
	g       *graph.Graph
	delta   dyngraph.Delta // the delta that opened the current epoch
	name    string
}

var _ dyngraph.DeltaDynamic = (*Schedule)(nil)

// New builds the schedule and materializes its round-1 topology.
func New(m Model, o Options) *Schedule {
	tau := o.Tau
	if tau <= 0 {
		tau = dyngraph.Infinite
	}
	s := &Schedule{
		n: o.N, tau: tau, radius: o.Radius, seed: o.Seed, model: m, opts: o,
		field: newField(o.N, o.Radius), patcher: graph.NewPatcher(o.N),
	}
	s.radius = s.field.r
	tauStr := fmt.Sprintf("τ=%d", tau)
	if tau == dyngraph.Infinite {
		tauStr = "τ=∞"
	}
	s.name = fmt.Sprintf("mobility(%s,%s,r=%.4f)", m.Name(), tauStr, s.radius)
	s.reset()
	return s
}

// reset (re)plays the schedule from its initial state: model placement and
// round-1 proximity graph.
func (s *Schedule) reset() {
	s.rng = prand.New(prand.Mix64(s.seed ^ 0x53a3f3aa35b1f74d))
	s.model.Init(s.n, s.rng, s.field.x, s.field.y)
	s.field.reset()
	s.field.advance() // first advance: delta against the empty graph
	s.epoch = 0
	s.delta = dyngraph.Delta{}
	s.loadGraph()
}

// loadGraph makes s.g the CSR of the current epoch's edge list: filled into
// the patcher's spare buffers straight from the sorted list or, in Rebuild
// mode, built from scratch.
func (s *Schedule) loadGraph() {
	edges, name := s.field.edges[s.field.cur], fmt.Sprintf("%s@e%d", s.model.Name(), s.epoch)
	if s.opts.Rebuild {
		s.g = graph.BuildPacked(s.n, edges, name)
		return
	}
	s.g = s.patcher.Load(edges, name)
}

func (s *Schedule) epochOf(r int) int {
	if r < 1 {
		r = 1
	}
	if s.tau == dyngraph.Infinite {
		return 0
	}
	return (r - 1) / s.tau
}

// At implements dyngraph.Dynamic. The returned graph aliases schedule
// buffers and is valid until the schedule advances to a later epoch.
func (s *Schedule) At(r int) *graph.Graph {
	e := s.epochOf(r)
	if e < s.epoch {
		s.reset()
	}
	for s.epoch < e {
		s.step()
	}
	return s.g
}

// step advances one motion epoch: move, recompute proximity, repair,
// diff (for the reported delta), and load the CSR (or rebuild).
func (s *Schedule) step() {
	s.model.Step(s.epoch+1, s.rng, s.field.x, s.field.y)
	added, removed := s.field.advance()
	s.delta = dyngraph.Delta{Added: added, Removed: removed}
	s.epoch++
	s.loadGraph()
}

// DeltaFor implements dyngraph.DeltaDynamic: the delta is nonzero exactly
// at the first round of an epoch whose motion changed some edge.
func (s *Schedule) DeltaFor(r int) dyngraph.Delta {
	s.At(r)
	if s.epoch == 0 || s.tau == dyngraph.Infinite || r != s.epoch*s.tau+1 {
		return dyngraph.Delta{}
	}
	return s.delta
}

// CheckpointTo serializes the schedule's mutable trajectory state: the
// shared RNG stream, the epoch index, every node's position, the model's
// per-node state, and the current epoch's sorted edge list. The CSR graph
// itself is not serialized — it is loaded from the edge list on restore,
// the same way every epoch's is (DESIGN.md §8). A resumed schedule therefore
// continues its trajectory directly instead of replaying every motion
// epoch from the seed.
func (s *Schedule) CheckpointTo(w *ckpt.Writer) {
	w.Section("mobility.schedule")
	w.Int(s.n)
	st := s.rng.State()
	w.U64(st[0])
	w.U64(st[1])
	w.U64(st[2])
	w.U64(st[3])
	w.Int(s.epoch)
	w.F64s(s.field.x)
	w.F64s(s.field.y)
	s.model.CheckpointTo(w)
	w.U64s(s.field.edges[s.field.cur])
}

// RestoreFrom loads a CheckpointTo stream into a schedule freshly built
// with the same Options, overwriting the round-1 state New materialized.
// Checkpoints are taken at round boundaries, where the delta that opened
// the current epoch has already been consumed by the engine, so it is
// reset rather than serialized.
func (s *Schedule) RestoreFrom(r *ckpt.Reader) error {
	r.Section("mobility.schedule")
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != s.n {
		return fmt.Errorf("mobility: checkpoint for %d nodes, schedule has %d", n, s.n)
	}
	s.rng.SetState([4]uint64{r.U64(), r.U64(), r.U64(), r.U64()})
	epoch := r.Int()
	r.F64sInto(s.field.x)
	r.F64sInto(s.field.y)
	if err := r.Err(); err != nil {
		return err
	}
	if err := s.model.RestoreFrom(r); err != nil {
		return err
	}
	edges := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	// Load panics on a list that is not canonical; a corrupt stream must
	// fail here, by name, instead.
	if err := graph.CheckPacked(edges, s.n); err != nil {
		return fmt.Errorf("mobility: checkpoint edge list: %w", err)
	}
	s.field.edges[0] = append(s.field.edges[0][:0], edges...)
	s.field.edges[1] = s.field.edges[1][:0]
	s.field.cur = 0
	s.epoch = epoch
	s.delta = dyngraph.Delta{}
	s.loadGraph()
	return nil
}

// N implements dyngraph.Dynamic.
func (s *Schedule) N() int { return s.n }

// Stability implements dyngraph.Dynamic.
func (s *Schedule) Stability() int { return s.tau }

// Name implements dyngraph.Dynamic.
func (s *Schedule) Name() string { return s.name }

// Radius returns the (possibly defaulted) radio range in effect.
func (s *Schedule) Radius() float64 { return s.radius }
