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
// and previous lists in two reused buffers, repairs connectivity, refills
// the CSR (graph.Patcher.Load) when At asks for a graph, names the graph
// <label>@e<epoch>, and counts the churn. List hands over the repaired list
// alone: a schedule read only through it (the base under an adversary)
// never builds a CSR.
//
// An epoch is produced in two halves. Stage copies the owner's committed
// state into its spare slot, advances the copy, emits and repairs into the
// spare buffer and — once DeltaFor and At have been asked — counts the diff
// against the current list and loads the CSR into the Patcher's spare
// buffer pair; commit flips the lists, the owner's slot, the epoch, the
// delta and the graph. At and List on the next epoch commit an epoch already staged
// or stage and commit it in one go, so an epoch staged ahead on another
// goroutine (mtm's Engine offers Stage(r+1) beside round r) and one
// produced inline take the same path. Staging reads and writes only the
// spare halves, so the current graph stays readable meanwhile; nothing
// staged is serialized.
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
	nextG   *graph.Graph   // the staged list's CSR, when the current one is loaded
	delta   Delta          // the churn that opened the current epoch, once counted
	pending bool           // delta is not counted yet; edges[1-cur] holds the previous epoch's list unless staged
	staged  bool           // edges[1-cur] and the spare slot hold epoch+1, not yet committed
	next    Delta          // the staged epoch's delta, when counted
	counted bool           // next is counted
	asked   bool           // DeltaFor has been called: a stage counts its delta
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
// after it is staged — once — into the spare buffer and slot, where At,
// List or DeltaFor on it commits it. A query further off commits its way to
// the epoch before r's, as a jump does, and stages r's. Once DeltaFor has
// been asked, a stage counts the staged epoch's delta — the walk DeltaFor
// would otherwise take after the commit — and first the current epoch's, if
// still pending, since the stage overwrites the list it is counted against;
// while the current epoch's graph is loaded, it loads the staged one's. A
// Stepper read only through its lists (a base under an adversary) does
// neither, and a DeltaFor of its current epoch after a stage panics. When Stageable(r), Stage touches only the spare halves, so it may
// run on another goroutine while the current graph is read.
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
		s.epoch, s.staged, s.pending, s.g = -1, false, false, nil
	}
	if target > s.epoch+1 {
		s.staged, s.pending, s.g = false, false, nil
		for s.epoch < target-2 {
			s.epoch++
			s.o.Advance(s.cur, s.epoch)
		}
		s.stage(false) // epoch target−1: the list target's delta differs from
		s.commit()
	}
	s.stage(true)
	return s.edges[1-s.cur]
}

// Stageable reports whether Stage(r) would stage the epoch after the
// current one — round r opens it — and the owner allows it (Owner.Ready).
func (s *Stepper) Stageable(r int) bool {
	return s.epoch >= 0 && epochOf(r, s.tau) == s.epoch+1 && (s.o.Ready == nil || s.o.Ready(s.epoch+1))
}

// stage produces epoch+1 into the spare buffer and slot. A full stage also
// does what the epoch's first DeltaFor and At would: it counts the delta if
// DeltaFor has been asked, and loads the CSR if the current epoch's is
// loaded — into the Patcher's other buffer pair, so the current graph
// stays intact.
func (s *Stepper) stage(full bool) {
	spare, count := 1-s.cur, full && s.asked
	if s.pending && count {
		s.countDelta()
	}
	if s.o.Copy != nil {
		s.o.Copy(spare, s.cur)
	}
	s.o.Advance(spare, s.epoch+1)
	s.edges[spare] = s.conn.Connect(s.o.Emit(spare, s.epoch+1, s.edges[spare][:0]))
	s.staged, s.counted, s.next = true, count && s.epoch >= 0, Delta{}
	if s.counted {
		s.next.Added, s.next.Removed = graph.DiffPacked(s.edges[s.cur], s.edges[spare])
	}
	s.nextG = nil
	if full && s.g != nil {
		s.nextG = s.csr(s.edges[spare], s.epoch+1)
	}
}

// commit makes the staged epoch the current one. The buffer it displaces is
// the previous epoch's, so there is a difference for DeltaFor to count at
// every epoch but 0, which shapes round 1 with no earlier graph to differ
// from.
func (s *Stepper) commit() {
	s.cur, s.epoch, s.g, s.staged = 1-s.cur, s.epoch+1, s.nextG, false
	s.delta, s.pending = s.next, !s.counted && s.epoch > 0
	if s.o.Commit != nil {
		s.o.Commit()
	}
}

// countDelta counts the current epoch's delta from the previous list.
func (s *Stepper) countDelta() {
	s.delta.Added, s.delta.Removed = graph.DiffPacked(s.edges[1-s.cur], s.edges[s.cur])
	s.pending = false
}

// load makes s.g the CSR of the current edge list.
func (s *Stepper) load() { s.g = s.csr(s.edges[s.cur], s.epoch) }

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

// DeltaFor implements DeltaDynamic: the delta is nonzero exactly at the
// first round of an epoch whose list differs from the previous epoch's. The
// lists are compared once per epoch — by the stage that produced it, once
// DeltaFor has been asked, or here on the epoch's first call — so a
// schedule nobody asks (the base under an adversary) never pays for the
// walk. The count needs the lists only, so DeltaFor builds no CSR.
func (s *Stepper) DeltaFor(r int) Delta {
	s.asked = true
	s.List(r)
	if r != s.FirstRound(s.epoch) {
		return Delta{}
	}
	if s.pending {
		if s.staged { // the stage overwrote the list the delta is counted against
			panic(fmt.Sprintf("dyngraph: %s asked for epoch %d's delta after staging the next, never asked before", s.label, s.epoch))
		}
		s.countDelta()
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
// epoch has already been consumed, so it is reset rather than serialized,
// and a staged epoch is dropped. Advancing afterwards continues from the
// owner's restored state, in its committed slot, without a rewind.
func (s *Stepper) Install(epoch int, edges []uint64) error {
	if epoch < -1 || epoch == -1 && len(edges) > 0 {
		return fmt.Errorf("dyngraph: checkpoint epoch %d with %d edges is not a schedule state", epoch, len(edges))
	}
	if err := graph.CheckPacked(edges, s.n); err != nil {
		return fmt.Errorf("dyngraph: checkpoint edge list: %w", err)
	}
	s.edges[s.cur] = append(s.edges[s.cur][:0], edges...)
	s.edges[1-s.cur] = s.edges[1-s.cur][:0]
	s.epoch, s.delta, s.pending, s.staged, s.g = epoch, Delta{}, false, false, nil
	return nil
}
