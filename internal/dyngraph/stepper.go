package dyngraph

import (
	"fmt"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/graph"
)

// epochOf maps round r (clamped to round 1) to its τ-round epoch. With
// τ = Infinite every round is epoch 0.
func epochOf(r, tau int) int {
	if r < 1 {
		r = 1
	}
	return (r - 1) / tau
}

// firstRound is epochOf's inverse: the first round of epoch e.
func firstRound(e, tau int) int {
	if tau == Infinite {
		return 1
	}
	return e*tau + 1
}

// Checkpointer is the stateful-schedule contract: a schedule that carries
// mutable state beyond (Config, round) serializes it through this pair.
// Pure-function schedules (Static, Regen, Sequence) serialize nothing.
type Checkpointer interface {
	CheckpointTo(w *ckpt.Writer)
	RestoreFrom(r *ckpt.Reader) error
}

// Stepper is the τ-stepping every edge-list schedule shares (§2: which
// connected graph in which round, changing at most every τ rounds). Its
// owner — internal/mobility's Schedule, internal/adversary's Engine —
// supplies only what is its own: produce, which appends epoch e's sorted
// packed edge list, and rewind, which returns the owner to its state before
// epoch 0. The Stepper keeps the epoch counter, holds the current and
// previous lists in two reused buffers, repairs connectivity, counts the
// churn, refills the CSR (graph.Patcher.Load) and names the graph
// <label>@e<epoch>.
//
// Rounds are meant to be queried in ascending order (the engine's access
// pattern), which asks produce for epochs 0, 1, 2, … once each; a query
// behind the current epoch rewinds and replays. Nothing is produced before
// the first query, so an owner decides itself whether round 1 is eager.
type Stepper struct {
	n       int
	tau     int // Infinite when frozen
	label   string
	rebuild bool
	rewind  func()
	produce func(epoch int, buf []uint64) []uint64

	epoch   int         // current epoch; -1 = none produced yet
	edges   [2][]uint64 // double-buffered sorted packed edge lists
	cur     int         // which buffer holds the current epoch's list
	conn    *graph.Connector
	patcher *graph.Patcher
	g       *graph.Graph
	delta   Delta // the churn that opened the current epoch
}

// NewStepper returns a Stepper over n vertices sitting before epoch 0.
// tau ≤ 0 freezes the schedule at epoch 0 (τ = ∞). rebuild swaps
// Patcher.Load for the from-scratch graph.BuildPacked oracle. produce must
// return buf extended by the epoch's edges in canonical order (see
// graph.CheckPacked; not necessarily connected); it is called for
// consecutive epochs, starting at 0 after construction and after rewind.
func NewStepper(n, tau int, label string, rebuild bool, rewind func(), produce func(epoch int, buf []uint64) []uint64) *Stepper {
	if tau <= 0 {
		tau = Infinite
	}
	return &Stepper{
		n: n, tau: tau, label: label, rebuild: rebuild, rewind: rewind, produce: produce,
		epoch: -1, conn: graph.NewConnector(n), patcher: graph.NewPatcher(n),
	}
}

// At implements Dynamic. The returned graph aliases the Stepper's buffers
// and is valid until a later epoch is queried.
func (s *Stepper) At(r int) *graph.Graph {
	target := epochOf(r, s.tau)
	if target < s.epoch {
		s.rewind()
		s.epoch = -1
	}
	for s.epoch < target {
		s.step()
	}
	return s.g
}

// step advances one epoch: produce the list, repair connectivity, count the
// difference from the previous epoch's list, load the CSR.
func (s *Stepper) step() {
	prev, spare := s.edges[s.cur], 1-s.cur
	next := s.conn.Connect(s.produce(s.epoch+1, s.edges[spare][:0]))
	s.edges[spare], s.cur = next, spare
	s.epoch++
	s.delta = Delta{}
	if s.epoch > 0 { // epoch 0 shapes round 1: there is no earlier graph to differ from
		s.delta.Added, s.delta.Removed = graph.DiffPacked(prev, next)
	}
	s.load()
}

// load makes s.g the CSR of the current edge list.
func (s *Stepper) load() {
	edges, name := s.edges[s.cur], fmt.Sprintf("%s@e%d", s.label, s.epoch)
	if s.rebuild {
		s.g = graph.BuildPacked(s.n, edges, name)
		return
	}
	s.g = s.patcher.Load(edges, name)
}

// DeltaFor implements DeltaDynamic: the delta is nonzero exactly at the
// first round of an epoch whose list differs from the previous epoch's.
func (s *Stepper) DeltaFor(r int) Delta {
	s.At(r)
	if s.epoch <= 0 || r != s.FirstRound(s.epoch) {
		return Delta{}
	}
	return s.delta
}

// FirstRound returns the first round of epoch e.
func (s *Stepper) FirstRound(e int) int { return firstRound(e, s.tau) }

// N implements Dynamic.
func (s *Stepper) N() int { return s.n }

// Stability implements Dynamic.
func (s *Stepper) Stability() int { return s.tau }

// TauString renders the stability factor for schedule names: "τ=3", "τ=∞".
func (s *Stepper) TauString() string {
	if s.tau == Infinite {
		return "τ=∞"
	}
	return fmt.Sprintf("τ=%d", s.tau)
}

// Epoch returns the epoch the Stepper sits in, -1 before the first query.
func (s *Stepper) Epoch() int { return s.epoch }

// Edges returns the current epoch's edge list (empty before the first
// query) — with Epoch, the Stepper's whole checkpointed state. The CSR is
// not serialized; Install loads it from the list, as every epoch's is.
func (s *Stepper) Edges() []uint64 { return s.edges[s.cur] }

// Install replaces the Stepper's state by a checkpointed (epoch, list). It
// validates both before overwriting anything: Load panics on a list that is
// not canonical, and an epoch below -1 — or no epoch yet a list — would
// resume silently on the wrong trajectory; a corrupt stream must fail here,
// by name, instead. Checkpoints are taken at round boundaries, where the
// delta that opened the epoch has already been consumed, so it is reset
// rather than serialized. Advancing afterwards continues from the owner's
// restored state without a rewind.
func (s *Stepper) Install(epoch int, edges []uint64) error {
	if epoch < -1 || epoch == -1 && len(edges) > 0 {
		return fmt.Errorf("dyngraph: checkpoint epoch %d with %d edges is not a schedule state", epoch, len(edges))
	}
	if err := graph.CheckPacked(edges, s.n); err != nil {
		return fmt.Errorf("dyngraph: checkpoint edge list: %w", err)
	}
	s.edges[0] = append(s.edges[0][:0], edges...)
	s.edges[1] = s.edges[1][:0]
	s.cur, s.epoch, s.delta, s.g = 0, epoch, Delta{}, nil
	if epoch >= 0 {
		s.load()
	}
	return nil
}
