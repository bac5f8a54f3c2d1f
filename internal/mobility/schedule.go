package mobility

import (
	"fmt"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
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
// dyngraph.DeltaDynamic. The embedded dyngraph.Stepper does the τ-stepping
// (At, DeltaFor, connectivity repair, churn count, CSR load, the jump on a
// far or backward query); what is the Schedule's own is its seeded
// trajectory: advance moves the crowd one epoch, emit scans it where it
// stands. A jump only moves — the trajectory is Model.Step's draws, never
// an edge list — so it lands where walking every round would.
type Schedule struct {
	*dyngraph.Stepper
	seed  uint64
	model Model
	rng   *prand.RNG
	field *field
	name  string
}

var _ dyngraph.DeltaDynamic = (*Schedule)(nil)

// New builds the schedule and materializes its round-1 edge list; the first
// At loads its CSR.
func New(m Model, o Options) *Schedule {
	s := &Schedule{seed: o.Seed, model: m, field: newField(o.N, o.Radius)}
	s.Stepper = dyngraph.NewStepper(o.N, o.Tau, m.Name(), o.Rebuild, s.rewind, s.advance, s.emit)
	s.name = fmt.Sprintf("mobility(%s,%s,r=%.4f)", m.Name(), s.TauString(), s.field.r)
	s.rewind()
	s.List(1)
	return s
}

// rewind returns the trajectory to its start: fresh RNG, initial placement.
func (s *Schedule) rewind() {
	s.rng = prand.New(prand.Mix64(s.seed ^ 0x53a3f3aa35b1f74d))
	s.model.Init(s.N(), s.rng, s.field.x, s.field.y)
}

// advance moves the crowd into motion epoch e; epoch 0 is the initial
// placement rewind made.
func (s *Schedule) advance(epoch int) {
	if epoch > 0 {
		s.model.Step(epoch, s.rng, s.field.x, s.field.y)
	}
}

// emit appends the proximity edges of the crowd as it stands.
func (s *Schedule) emit(_ int, buf []uint64) []uint64 { return s.field.computeEdges(buf) }

// CheckpointTo serializes the schedule's mutable trajectory state: the
// shared RNG stream, the epoch index, every node's position, the model's
// per-node state, and the current epoch's sorted edge list. A resumed
// schedule therefore continues its trajectory directly instead of replaying
// every motion epoch from the seed.
func (s *Schedule) CheckpointTo(w *ckpt.Writer) {
	w.Section("mobility.schedule")
	w.Int(s.N())
	st := s.rng.State()
	w.U64(st[0])
	w.U64(st[1])
	w.U64(st[2])
	w.U64(st[3])
	w.Int(s.Epoch())
	w.F64s(s.field.x)
	w.F64s(s.field.y)
	s.model.CheckpointTo(w)
	w.U64s(s.Edges())
}

// RestoreFrom loads a CheckpointTo stream into a schedule freshly built
// with the same Options, overwriting the round-1 state New materialized.
func (s *Schedule) RestoreFrom(r *ckpt.Reader) error {
	r.Section("mobility.schedule")
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != s.N() {
		return fmt.Errorf("mobility: checkpoint for %d nodes, schedule has %d", n, s.N())
	}
	rng := [4]uint64{r.U64(), r.U64(), r.U64(), r.U64()}
	epoch := r.Int()
	if epoch < 0 { // New is eager: a written schedule has produced round 1
		return fmt.Errorf("mobility: checkpoint epoch %d < 0", epoch)
	}
	s.rng.SetState(rng)
	r.F64sInto(s.field.x)
	r.F64sInto(s.field.y)
	if err := r.Err(); err != nil {
		return err
	}
	// The scan buckets a point by its coordinates, so one outside the square
	// (or NaN) would land in the wrong cell and the run would go on along
	// another trajectory. 1 is the far border, which the scan clamps.
	for i, x := range s.field.x {
		if y := s.field.y[i]; !(x >= 0 && x <= 1 && y >= 0 && y <= 1) {
			return fmt.Errorf("mobility: checkpoint puts node %d at (%g, %g), outside the unit square", i, x, y)
		}
	}
	if err := s.model.RestoreFrom(r); err != nil {
		return err
	}
	edges := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	if err := s.Install(epoch, edges); err != nil {
		return fmt.Errorf("mobility: %w", err)
	}
	return nil
}

// Name implements dyngraph.Dynamic.
func (s *Schedule) Name() string { return s.name }

// Radius returns the (possibly defaulted) radio range in effect.
func (s *Schedule) Radius() float64 { return s.field.r }
