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
// mutable state beyond (Config, round) lays it out against ckpt.Fields, one
// walk for the checkpoint's write and its read. Pure-function schedules
// (Static, Regen, Sequence) lay out nothing.
type Checkpointer interface {
	Layout(c ckpt.Fields) error
}

// Stager is a schedule whose next epoch can be produced ahead of its first
// round, beside the goroutine reading the current one: every Stepper-backed
// schedule. mtm's Engine asks Stageable(r+1) right after round r's churn
// and, on true, may run Stage(r+1) on a helper until round r ends.
type Stager interface {
	Stageable(r int) bool
	Stage(r int) []uint64
}

// Owner is what a Stepper steps: the state of a schedule behind its epoch
// counter, kept in two slots indexed as the Stepper's edge lists are — the
// committed slot (Stepper.Slot), which a checkpoint reads, and a spare one,
// which a stage advances from a copy of it.
type Owner struct {
	// Rewind returns slot to its state before epoch 0.
	Rewind func(slot int)
	// Advance moves slot's state into epoch (the crowd's motion; a no-op
	// for an owner with none).
	Advance func(slot, epoch int)
	// Emit appends epoch's sorted packed edge list, read from slot's state.
	Emit func(slot, epoch int, buf []uint64) []uint64
	// Copy copies slot src's state into slot dst; nil when the owner keeps
	// no state of its own.
	Copy func(dst, src int)
	// Commit, when set, runs after a staged epoch becomes the current one.
	Commit func()
	// Ready, when set, reports whether epoch may be staged ahead of its
	// first round (Stageable); nil allows every epoch.
	Ready func(epoch int) bool
}

// Stepper is the τ-stepping every edge-list schedule shares (§2: which
// connected graph in which round, changing at most every τ rounds). Its
// owner — internal/mobility's Schedule, internal/adversary's Engine —
// supplies only what is its own (Owner): rewinding its state to before
// epoch 0, advancing it into epoch e (the crowd's motion; a no-op for an
// owner with none), and emitting epoch e's sorted packed edge list from the
// state it is in. The Stepper keeps the epoch counter, holds the current
// and previous lists in two reused buffers, repairs connectivity, and —
// for a schedule read through At — refills the CSR (graph.Patcher.Load),
// names the graph <label>@e<epoch> and counts the churn. List hands over
// the repaired list alone: a schedule read only through it (the base under
// an adversary) never builds a CSR and never counts a delta.
//
// An epoch's delta is counted exactly where its CSR is loaded, against the
// previous epoch's list. Stage copies the owner's committed state into its
// spare slot, advances the copy, and emits and repairs into the spare
// buffer; while the current epoch's graph is loaded, it also counts the
// staged epoch's delta and loads its CSR into the Patcher's spare buffer
// pair. Commit flips the lists, the owner's slot, the epoch, the delta and
// the graph. An epoch that arrives without a graph — the first, one landed
// on by a jump, a restored one — gets both from its first At. At and List on
// the next epoch commit an epoch already staged or stage and commit it in
// one go, so an epoch staged ahead on another goroutine (mtm's Engine
// offers Stage(r+1) beside round r) and one produced inline take the same
// path. Staging reads and writes only the spare halves, so the current
// graph stays readable meanwhile; nothing staged is serialized.
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
	o       Owner

	epoch   int         // current epoch; -1 = none yet
	edges   [2][]uint64 // double-buffered sorted packed edge lists
	cur     int         // which buffer, and which owner slot, holds the current epoch
	conn    *graph.Connector
	patcher *graph.Patcher // built by the first load
	g       *graph.Graph   // the current list's CSR; nil until At asks for it
	delta   Delta          // the churn that opened the current epoch, counted with g
	staged  bool           // edges[1-cur] and the spare slot hold epoch+1, not yet committed
	nextG   *graph.Graph   // the staged list's CSR, when the current one is loaded
	next    Delta          // the staged epoch's delta, counted with nextG
}

// NewStepper returns a Stepper over n vertices sitting before epoch 0.
// tau ≤ 0 freezes the schedule at epoch 0 (τ = ∞). rebuild swaps
// Patcher.Load for the from-scratch graph.BuildPacked oracle. After
// construction and after a rewind, the committed slot is advanced through
// epochs 0, 1, 2, … without a gap, directly or through a spare slot copied
// from it; Emit(slot, e, buf) only right after Advance(slot, e), for the
// epochs a query reads. It must return buf extended by the epoch's edges in
// canonical order (see graph.CheckPacked; not necessarily connected) and
// must read the owner's state, not move it: a skipped emit changes no later
// output.
func NewStepper(n, tau int, label string, rebuild bool, o Owner) *Stepper {
	if tau <= 0 {
		tau = Infinite
	}
	return &Stepper{
		n: n, tau: tau, label: label, rebuild: rebuild, o: o,
		epoch: -1, conn: graph.NewConnector(n),
	}
}

// At implements Dynamic: List, then the list's CSR. An epoch that arrived
// without one loads it here and counts its delta against the spare list,
// the previous epoch's — zero at epoch 0 and right after Install. The
// returned graph aliases the Stepper's buffers and is valid until a later
// epoch is queried. Loading an epoch whose successor was staged without a
// CSR panics: the stage overwrote the list the delta is counted against.
// No product caller does that — a stage follows an At of the same Stepper
// or none ever comes.
func (s *Stepper) At(r int) *graph.Graph {
	s.List(r)
	if s.g == nil {
		if s.staged {
			panic(fmt.Sprintf("dyngraph: %s loads epoch %d after epoch %d was staged without a graph", s.label, s.epoch, s.epoch+1))
		}
		s.delta = Delta{}
		if s.epoch > 0 {
			s.delta.Added, s.delta.Removed = graph.DiffPacked(s.edges[1-s.cur], s.edges[s.cur])
		}
		s.g = s.csr(s.edges[s.cur], s.epoch)
	}
	return s.g
}

// List τ-steps to round r's epoch and returns its repaired, sorted packed
// edge list — the list At's graph holds — without building the CSR: Stage,
// then commit what it staged. The slice is the Stepper's buffer, valid
// until a later epoch is queried.
func (s *Stepper) List(r int) []uint64 {
	s.Stage(r)
	if s.staged && epochOf(r, s.tau) == s.epoch+1 {
		s.commit()
	}
	return s.edges[s.cur]
}

// Stage brings round r's epoch as far as it goes without committing a new
// one, and returns its list. In the current epoch nothing moves. The epoch
// after it is staged — once — into the spare buffer and slot, where At or
// List on it commits it. A query further off commits its way to the epoch
// before r's, as a jump does, and stages r's. When Stageable(r), Stage
// touches only the spare halves, so it may run on another goroutine while
// the current graph is read.
func (s *Stepper) Stage(r int) []uint64 {
	target := epochOf(r, s.tau)
	if s.staged && target > s.epoch+1 {
		s.commit() // the staged epoch is on the way
	}
	switch {
	case target == s.epoch:
		return s.edges[s.cur]
	case target == s.epoch+1 && s.staged:
		return s.edges[1-s.cur]
	case target < s.epoch:
		s.o.Rewind(s.cur)
		s.epoch, s.staged, s.g = -1, false, nil
	}
	if target > s.epoch+1 {
		s.g = nil // a jump lands without a graph
		for s.epoch < target-2 {
			s.epoch++
			s.o.Advance(s.cur, s.epoch)
		}
		s.stage() // epoch target−1: the list target's delta differs from
		s.commit()
	}
	s.stage()
	return s.edges[1-s.cur]
}

// Stageable reports whether Stage(r) would stage the epoch after the
// current one — round r opens it — and the owner allows it (Owner.Ready).
func (s *Stepper) Stageable(r int) bool {
	return s.epoch >= 0 && epochOf(r, s.tau) == s.epoch+1 && (s.o.Ready == nil || s.o.Ready(s.epoch+1))
}

// stage produces epoch+1 into the spare buffer and slot. While the current
// epoch's graph is loaded it also counts the staged epoch's delta and loads
// its CSR — into the Patcher's other buffer pair, so the current graph
// stays intact.
func (s *Stepper) stage() {
	spare := 1 - s.cur
	if s.o.Copy != nil {
		s.o.Copy(spare, s.cur)
	}
	s.o.Advance(spare, s.epoch+1)
	s.edges[spare] = s.conn.Connect(s.o.Emit(spare, s.epoch+1, s.edges[spare][:0]))
	s.staged, s.nextG = true, nil
	if s.g != nil {
		s.next.Added, s.next.Removed = graph.DiffPacked(s.edges[s.cur], s.edges[spare])
		s.nextG = s.csr(s.edges[spare], s.epoch+1)
	}
}

// commit makes the staged epoch the current one, with the graph and delta
// the stage gave it, if any.
func (s *Stepper) commit() {
	s.cur, s.epoch, s.g, s.delta, s.staged = 1-s.cur, s.epoch+1, s.nextG, s.next, false
	if s.o.Commit != nil {
		s.o.Commit()
	}
}

// csr returns the graph of epoch's list, named <label>@e<epoch>.
func (s *Stepper) csr(edges []uint64, epoch int) *graph.Graph {
	name := fmt.Sprintf("%s@e%d", s.label, epoch)
	if s.rebuild {
		return graph.BuildPacked(s.n, edges, name)
	}
	if s.patcher == nil {
		s.patcher = graph.NewPatcher(s.n)
	}
	return s.patcher.Load(edges, name)
}

// DeltaFor implements DeltaDynamic: At(r)'s delta at the first round of its
// epoch, zero elsewhere.
func (s *Stepper) DeltaFor(r int) Delta {
	s.At(r)
	if r != s.FirstRound(s.epoch) {
		return Delta{}
	}
	return s.delta
}

// FirstRound returns the first round of epoch e.
func (s *Stepper) FirstRound(e int) int { return firstRound(e, s.tau) }

// N implements Dynamic.
func (s *Stepper) N() int { return s.n }

// TauString renders the stability factor for schedule names: "τ=3", "τ=∞".
func (s *Stepper) TauString() string {
	if s.tau == Infinite {
		return "τ=∞"
	}
	return fmt.Sprintf("τ=%d", s.tau)
}

// Epoch returns the epoch the Stepper sits in, -1 before the first query.
// A staged epoch is not counted until it is committed.
func (s *Stepper) Epoch() int { return s.epoch }

// Slot returns the owner's committed slot: the one its checkpoint writes
// and its restore fills.
func (s *Stepper) Slot() int { return s.cur }

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
// epoch has already been consumed, so it is not serialized: the spare list
// becomes a copy of the installed one, against which the first At counts
// zero. A staged epoch is dropped. Advancing afterwards continues from the
// owner's restored state, in its committed slot, without a rewind.
func (s *Stepper) Install(epoch int, edges []uint64) error {
	if epoch < -1 || epoch == -1 && len(edges) > 0 {
		return fmt.Errorf("dyngraph: checkpoint epoch %d with %d edges is not a schedule state", epoch, len(edges))
	}
	if err := graph.CheckPacked(edges, s.n); err != nil {
		return fmt.Errorf("dyngraph: checkpoint edge list: %w", err)
	}
	for i := range s.edges {
		s.edges[i] = append(s.edges[i][:0], edges...)
	}
	s.epoch, s.staged, s.g = epoch, false, nil
	return nil
}
