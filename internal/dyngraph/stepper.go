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
// supplies only what is its own, in three parts: rewind returns the owner to
// its state before epoch 0, advance moves that state into epoch e (the
// crowd's motion; a no-op for an owner with none), and emit appends epoch
// e's sorted packed edge list from the state the owner is in. The Stepper keeps
// the epoch counter, holds the current and previous lists in two reused
// buffers, repairs connectivity, refills the CSR (graph.Patcher.Load) when
// At asks for a graph, names the graph <label>@e<epoch>, and counts the
// churn when DeltaFor asks. List hands over the repaired list alone: a
// schedule read only through it (the base under an adversary) never builds
// a CSR.
//
// A query advances through every epoch up to its own but emits only the
// last two, e−1 and e — the pair DeltaFor differs; the model owes nobody the
// graphs of rounds never asked for. Ascending queries (the engine's access
// pattern) therefore see epochs 0, 1, 2, … emitted once each; a forward jump
// (a fresh or restored schedule asked for a far round) moves the owner's
// state across the gap and scans only where it lands; a query behind the
// current epoch rewinds and jumps. Nothing happens before the first query,
// so an owner decides itself whether round 1 is eager.
type Stepper struct {
	n       int
	tau     int // Infinite when frozen
	label   string
	rebuild bool
	rewind  func()
	advance func(epoch int)
	emit    func(epoch int, buf []uint64) []uint64

	epoch   int         // current epoch; -1 = none yet
	edges   [2][]uint64 // double-buffered sorted packed edge lists
	cur     int         // which buffer holds the current epoch's list
	conn    *graph.Connector
	patcher *graph.Patcher // built by the first load
	g       *graph.Graph   // the current list's CSR; nil until At asks for it
	delta   Delta          // the churn that opened the current epoch, once counted
	pending bool           // edges[1-cur] is the previous epoch's list and delta is not counted yet
}

// NewStepper returns a Stepper over n vertices sitting before epoch 0.
// tau ≤ 0 freezes the schedule at epoch 0 (τ = ∞). rebuild swaps
// Patcher.Load for the from-scratch graph.BuildPacked oracle. After
// construction and after rewind, advance is called for epochs 0, 1, 2, …
// without a gap; emit(e, buf) only right after advance(e), for the epochs a
// query reads. It must return buf extended by the epoch's edges in canonical
// order (see graph.CheckPacked; not necessarily connected) and must read the
// owner's state, not move it: a skipped emit changes no later output.
func NewStepper(n, tau int, label string, rebuild bool, rewind func(), advance func(epoch int), emit func(epoch int, buf []uint64) []uint64) *Stepper {
	if tau <= 0 {
		tau = Infinite
	}
	return &Stepper{
		n: n, tau: tau, label: label, rebuild: rebuild, rewind: rewind, advance: advance, emit: emit,
		epoch: -1, conn: graph.NewConnector(n),
	}
}

// At implements Dynamic: List, then the list's CSR, loaded on the epoch's
// first At. The returned graph aliases the Stepper's buffers and is valid
// until a later epoch is queried.
func (s *Stepper) At(r int) *graph.Graph {
	s.List(r)
	if s.g == nil {
		s.load()
	}
	return s.g
}

// List τ-steps to round r's epoch and returns its repaired, sorted packed
// edge list — the list At's graph holds — without building the CSR. The
// slice is the Stepper's buffer, valid until a later epoch is queried.
func (s *Stepper) List(r int) []uint64 {
	target := epochOf(r, s.tau)
	if target == s.epoch {
		return s.edges[s.cur]
	}
	if target < s.epoch {
		s.rewind()
		s.epoch = -1
	}
	for s.epoch < target {
		s.epoch++
		s.advance(s.epoch)
		if s.epoch >= target-1 {
			s.list()
		}
	}
	return s.edges[s.cur]
}

// list makes the spare buffer the current epoch's repaired list. The buffer
// it displaces is the previous epoch's wherever a query can land — At lists
// target−1 before target, and between queries the current epoch's list is
// held — so there is a difference for DeltaFor to count at every epoch but 0,
// which shapes round 1 with no earlier graph to differ from.
func (s *Stepper) list() {
	spare := 1 - s.cur
	s.edges[spare] = s.conn.Connect(s.emit(s.epoch, s.edges[spare][:0]))
	s.cur, s.g = spare, nil
	s.delta, s.pending = Delta{}, s.epoch > 0
}

// load makes s.g the CSR of the current edge list.
func (s *Stepper) load() {
	edges, name := s.edges[s.cur], fmt.Sprintf("%s@e%d", s.label, s.epoch)
	if s.rebuild {
		s.g = graph.BuildPacked(s.n, edges, name)
		return
	}
	if s.patcher == nil {
		s.patcher = graph.NewPatcher(s.n)
	}
	s.g = s.patcher.Load(edges, name)
}

// DeltaFor implements DeltaDynamic: the delta is nonzero exactly at the
// first round of an epoch whose list differs from the previous epoch's. The
// lists are compared here, on the epoch's first call — a schedule nobody
// asks (the base under an adversary) never pays for the walk. The count
// needs the lists only, so DeltaFor builds no CSR.
func (s *Stepper) DeltaFor(r int) Delta {
	s.List(r)
	if r != s.FirstRound(s.epoch) {
		return Delta{}
	}
	if s.pending {
		s.delta.Added, s.delta.Removed = graph.DiffPacked(s.edges[1-s.cur], s.edges[s.cur])
		s.pending = false
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
// not serialized; the first At after Install loads it from the list, as
// every epoch's is.
func (s *Stepper) Edges() []uint64 { return s.edges[s.cur] }

// Install replaces the Stepper's state by a checkpointed (epoch, list). It
// validates both before overwriting anything: Load, which the first At after
// it runs on the list, panics on a list that is not canonical, and an epoch
// below -1 — or no epoch yet a list — would resume silently on the wrong
// trajectory; a corrupt stream must fail here, by name, instead.
// Checkpoints are taken at round boundaries, where the delta that opened the
// epoch has already been consumed, so it is reset rather than serialized.
// Advancing afterwards continues from the owner's restored state without a
// rewind.
func (s *Stepper) Install(epoch int, edges []uint64) error {
	if epoch < -1 || epoch == -1 && len(edges) > 0 {
		return fmt.Errorf("dyngraph: checkpoint epoch %d with %d edges is not a schedule state", epoch, len(edges))
	}
	if err := graph.CheckPacked(edges, s.n); err != nil {
		return fmt.Errorf("dyngraph: checkpoint edge list: %w", err)
	}
	s.edges[0] = append(s.edges[0][:0], edges...)
	s.edges[1] = s.edges[1][:0]
	s.cur, s.epoch, s.delta, s.pending, s.g = 0, epoch, Delta{}, false, nil
	return nil
}
