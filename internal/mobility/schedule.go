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
// far or backward query, the stage of the next epoch); what is the
// Schedule's own is its seeded trajectory, kept in the Stepper's two slots:
// advance moves a slot's crowd one epoch, emit scans it where it stands. A
// jump only moves — the trajectory is Model.Step's draws, never an edge list
// — so it lands where walking every round would.
type Schedule struct {
	*dyngraph.Stepper
	seed  uint64
	crowd [2]crowd
	field *field
	name  string
}

// crowd is one slot of the trajectory: the shared RNG stream, every node's
// position and the model's per-node state. Slot Stepper.Slot is the
// committed one; the other is where a stage advances a copy of it. The
// copy costs 16 B/node of positions plus what Model.Mirror copies (24 more
// for waypoint), allocated by New's first epoch.
type crowd struct {
	rng   prand.RNG
	x, y  []float64
	model Model
}

var _ dyngraph.DeltaDynamic = (*Schedule)(nil)

// New builds the schedule and materializes its round-1 edge list; the first
// At loads its CSR.
func New(m Model, o Options) *Schedule {
	f := newField(o.N, o.Radius)
	s := &Schedule{seed: o.Seed, field: f}
	s.crowd[0] = crowd{x: f.x, y: f.y, model: m}
	s.crowd[1] = crowd{x: make([]float64, o.N), y: make([]float64, o.N)}
	s.Stepper = dyngraph.NewStepper(o.N, o.Tau, m.Name(), o.Rebuild, dyngraph.Owner{
		Rewind: s.rewind, Advance: s.advance, Emit: s.emit, Copy: s.copy,
	})
	s.name = fmt.Sprintf("mobility(%s,%s,r=%.4f)", m.Name(), s.TauString(), f.r)
	s.rewind(0)
	s.List(1)
	return s
}

// rewind returns a slot's trajectory to its start: fresh RNG, initial
// placement.
func (s *Schedule) rewind(slot int) {
	c := &s.crowd[slot]
	c.rng.Seed(prand.Mix64(s.seed ^ 0x53a3f3aa35b1f74d))
	c.model.Init(s.N(), &c.rng, c.x, c.y)
}

// advance moves a slot's crowd into motion epoch e; epoch 0 is the initial
// placement rewind made.
func (s *Schedule) advance(slot, epoch int) {
	if c := &s.crowd[slot]; epoch > 0 {
		c.model.Step(epoch, &c.rng, c.x, c.y)
	}
}

// emit appends the proximity edges of a slot's crowd as it stands.
func (s *Schedule) emit(slot, _ int, buf []uint64) []uint64 {
	s.field.x, s.field.y = s.crowd[slot].x, s.crowd[slot].y
	return s.field.computeEdges(buf)
}

// copy makes slot dst the trajectory slot src is on.
func (s *Schedule) copy(dst, src int) {
	d, c := &s.crowd[dst], &s.crowd[src]
	d.rng = c.rng
	copy(d.x, c.x)
	copy(d.y, c.y)
	d.model = c.model.Mirror(d.model)
}

// Layout lays out the schedule's mutable trajectory state — its committed
// slot: the shared RNG stream, the epoch index, every node's position, the
// model's per-node state, and the current epoch's sorted edge list. A
// resumed schedule therefore continues its trajectory directly instead of
// replaying every motion epoch from the seed. A staged epoch is not laid
// out. A read overwrites the round-1 state New materialized in a schedule
// freshly built with the same Options.
func (s *Schedule) Layout(c ckpt.Fields) error {
	cr := &s.crowd[s.Slot()]
	c.Section("mobility.schedule")
	n := s.N()
	c.Int(&n)
	if err := c.Err(); err != nil {
		return err
	}
	if n != s.N() {
		return fmt.Errorf("mobility: checkpoint for %d nodes, schedule has %d", n, s.N())
	}
	rng := cr.rng.State()
	for i := range rng {
		c.U64(&rng[i])
	}
	epoch := s.Epoch()
	c.Int(&epoch)
	if epoch < 0 { // New is eager: a written schedule has produced round 1
		return fmt.Errorf("mobility: checkpoint epoch %d < 0", epoch)
	}
	cr.rng.SetState(rng) // on a write, the state it already holds
	c.F64sInto(cr.x)
	c.F64sInto(cr.y)
	if err := c.Err(); err != nil {
		return err
	}
	// The scan buckets a point by its coordinates, so one read outside the
	// square (or NaN) would land in the wrong cell and the run would go on
	// along another trajectory. 1 is the far border, which the scan clamps.
	if c.Reading() {
		for i, x := range cr.x {
			if y := cr.y[i]; !(x >= 0 && x <= 1 && y >= 0 && y <= 1) {
				return fmt.Errorf("mobility: checkpoint puts node %d at (%g, %g), outside the unit square", i, x, y)
			}
		}
	}
	if err := cr.model.Layout(c); err != nil {
		return err
	}
	edges := s.Edges()
	c.U64s(&edges)
	if err := c.Err(); err != nil || !c.Reading() {
		return err
	}
	if err := s.Install(epoch, edges); err != nil {
		return fmt.Errorf("mobility: %w", err)
	}
	return nil
}

// Name implements dyngraph.Dynamic.
func (s *Schedule) Name() string { return s.name }
