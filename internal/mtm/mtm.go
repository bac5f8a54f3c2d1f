// Package mtm implements the mobile telephone model of Ghaffari–Newport
// (DISC'16) and Newport (PODC'17 — the reproduced paper, §2): synchronous
// rounds over a dynamic connected topology in which every node advertises a
// b-bit tag, scans its neighbors (learning ids and tags), and then either
// sends a single connection proposal or listens. A listening node that
// receives proposals accepts one chosen uniformly at random; a node that
// proposes cannot receive. The connected pairs — which always form a
// matching — perform a bounded amount of interactive communication
// (O(1) tokens plus O(polylog N) control bits) before the round ends.
//
// The Engine enforces every model constraint: one proposal per node,
// proposer-cannot-receive, uniform acceptance, matching-only connections,
// per-connection communication budgets, and the τ-stability of the topology
// schedule. There is one round loop: every phase is written once over a
// range (shard.go), and a round runs it over one range inline or over
// Config.Workers ranges in parallel. Any worker count produces the
// bit-identical execution because all randomness is drawn from per-node
// streams and per-round connections are vertex-disjoint.
package mtm

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
)

// NodeID identifies a node; nodes are 0..n-1.
type NodeID = int

// Neighbor is one entry of a node's per-round scan: a neighbor's id and its
// advertised tag (low b bits meaningful).
type Neighbor struct {
	ID  NodeID
	Tag uint64
}

// Action is a node's per-round decision after scanning.
type Action struct {
	Propose bool
	Target  NodeID // meaningful only when Propose
}

// Listen returns the listening action.
func Listen() Action { return Action{} }

// Propose returns a proposal aimed at target.
func Propose(target NodeID) Action { return Action{Propose: true, Target: target} }

// Protocol is a distributed algorithm in the mobile telephone model. A
// Protocol owns the state of all nodes; the engine calls its methods with
// explicit node ids. Contract required for running a round's ranges in
// parallel (and checked by this package's determinism tests): Tag and
// Decide for node u read/write only u's state; Exchange reads/writes only
// the two endpoint states of its connection.
type Protocol interface {
	// TagBits returns the tag length b >= 0 the protocol uses.
	TagBits() int
	// Tag returns node's advertisement for round r.
	Tag(r int, node NodeID) uint64
	// Decide returns node's action for round r given its scan view. The
	// view slice is reused by the engine and must not be retained. rng is
	// the node's private randomness stream.
	Decide(r int, node NodeID, view []Neighbor, rng *prand.RNG) Action
	// Exchange performs the bounded pairwise communication over an accepted
	// connection.
	Exchange(r int, c *Conn)
	// Done reports whether the protocol's objective has been reached; the
	// engine checks it at the end of every round.
	Done() bool
}

// Conn is one accepted connection. Protocols meter their communication
// through ChargeBits and ChargeTokens; exceeding the model budget marks the
// connection over budget, which Engine.Run surfaces as an error (the
// algorithms in this repository are tested to stay within budget).
type Conn struct {
	Round     int
	Initiator NodeID
	Responder NodeID
	// InitRNG and RespRNG are the endpoints' private randomness streams.
	InitRNG *prand.RNG
	RespRNG *prand.RNG

	bitsUsed   int
	tokensUsed int
	bitLimit   int
	tokenLimit int
	overBudget bool
}

// NewConn constructs a standalone connection with the given budgets. The
// engine builds its own connections; this constructor exists for unit tests
// and for protocols that meter sub-phases independently.
func NewConn(round int, initiator, responder NodeID, initRNG, respRNG *prand.RNG, bitLimit, tokenLimit int) *Conn {
	return &Conn{
		Round: round, Initiator: initiator, Responder: responder,
		InitRNG: initRNG, RespRNG: respRNG,
		bitLimit: bitLimit, tokenLimit: tokenLimit,
	}
}

// ChargeBits records n control bits of interactive communication.
func (c *Conn) ChargeBits(n int) {
	c.bitsUsed += n
	if c.bitsUsed > c.bitLimit {
		c.overBudget = true
	}
}

// ChargeTokens records the transfer of n full gossip tokens.
func (c *Conn) ChargeTokens(n int) {
	c.tokensUsed += n
	if c.tokensUsed > c.tokenLimit {
		c.overBudget = true
	}
}

// BitsUsed returns the control bits charged so far.
func (c *Conn) BitsUsed() int { return c.bitsUsed }

// TokensUsed returns the tokens charged so far.
func (c *Conn) TokensUsed() int { return c.tokensUsed }

// OverBudget reports whether the connection exceeded the model budget.
func (c *Conn) OverBudget() bool { return c.overBudget }

// Config parameterizes an Engine.
type Config struct {
	// Seed derives every private randomness stream of the run.
	Seed uint64
	// MaxRounds aborts the run if the protocol is not Done by then.
	MaxRounds int
	// Workers is the number of contiguous degree-balanced shards the node
	// range is split into: every round phase (tag, decide, deliver, accept,
	// exchange) runs over the shards in parallel with a deterministic
	// cross-shard reduction, producing byte-identical executions at any
	// worker count or GOMAXPROCS (see DESIGN.md §11). Workers ≤ 1 is the
	// one-shard round, run inline on the caller with no goroutine (the
	// 0 allocs/op steady state).
	Workers int
	// BitLimit overrides the per-connection control-bit budget
	// (default 64·(⌈log₂ N⌉+1)³, a generous polylog(N)).
	BitLimit int
	// TokenLimit overrides the per-connection token budget (default 4,
	// an O(1)).
	TokenLimit int
	// OnRound, if non-nil, is called after every completed round with the
	// round number; used by the harness for instrumentation (φ traces).
	OnRound func(r int)
}

// Result summarizes a run.
type Result struct {
	Rounds      int   // rounds executed
	Completed   bool  // protocol reported Done
	Connections int64 // accepted connections
	Proposals   int64 // proposals sent
	ControlBits int64 // total metered control bits
	TokensMoved int64 // total metered token transfers
	// EdgesAdded and EdgesRemoved total the topology churn over the run as
	// reported by a dyngraph.DeltaDynamic schedule (0 for schedules without
	// delta support, including all static ones).
	EdgesAdded   int64
	EdgesRemoved int64
}

// RoundStats reports one executed round: the engine meters for exactly
// that round (not running totals) plus whether the protocol reached its
// objective at the round's end.
type RoundStats struct {
	Round        int   // the 1-based round just executed
	Connections  int   // accepted connections this round
	Proposals    int   // proposals sent this round
	ControlBits  int64 // control bits metered this round
	TokensMoved  int64 // token transfers metered this round
	EdgesAdded   int   // topology churn entering this round (delta schedules)
	EdgesRemoved int
	Done         bool // protocol reported Done at the end of this round
}

// Engine drives a Protocol over a dynamic topology. It is a resumable step
// state machine: Step executes exactly one round, Run loops Step to
// completion, and CheckpointTo/RestoreFrom serialize the engine's mutable
// state (round counter, meters, per-node RNG streams) so a run can be
// resumed byte-identically at any round boundary.
//
// All per-round working state lives in scratch buffers owned by the engine
// and allocated once in NewEngine: tag and action arrays, the flat proposal
// inbox (CSR-style counts + offsets + one backing array), the per-shard
// scan views and accepted pairs, and the Conn records themselves. The
// one-shard round loop therefore performs zero steady-state heap
// allocations — see DESIGN.md §"Scratch-buffer lifecycle".
type Engine struct {
	dyn   dyngraph.Dynamic
	proto Protocol
	cfg   Config
	rngs  []*prand.RNG

	// Step state machine.
	round      int    // rounds executed so far
	started    bool   // the pre-round-1 Done check has run
	completed  bool   // protocol reported Done
	overBudget bool   // some connection exceeded its budget
	failed     error  // a model-contract violation poisoned the run
	tagMask    uint64 // mask of the protocol's declared tag width
	deltaDyn   dyngraph.DeltaDynamic
	res        Result // running totals

	// Per-round scratch, reused across rounds (sized to n once).
	tags    []uint64 // advertised tags, by node
	acts    []Action // decisions, by node
	targets []int32  // validated proposal target per node (-1 = none)
	inCnt   []int32  // valid proposals per target node
	inOff   []int32  // prefix offsets into inbox (len n+1)
	inbox   []int32  // flat proposal inbox: proposers grouped by target
	conns   []Conn

	// The round's ranges and the fan-out that runs them (see shard.go).
	g        *graph.Graph   // this round's topology
	workers  int            // resolved shard count (≥ 1)
	cuts     []int32        // per-round shard boundaries (len shards+1)
	exCuts   []int32        // per-round exchange chunk boundaries
	testCuts []int32        // test hook: fixed boundaries override cuts
	shards   []shard        // per-range scratch
	wg       sync.WaitGroup // the phase barrier

	// Profiling sidecar (nil = off; see internal/profile and DESIGN.md
	// §13). Timing is read-only: it draws no randomness and mutates no
	// simulation state, so profiled and unprofiled runs are
	// byte-identical. profParNs accumulates, over the round's phases that
	// ran in parallel, wall time × ranges launched — the goroutine-time the
	// barrier accounting compares against the shards' compute time.
	prof      *profile.Recorder
	profParNs int64
}

// ErrBudgetExceeded is returned when any connection exceeded its
// communication budget during the run.
var ErrBudgetExceeded = errors.New("mtm: connection exceeded communication budget")

// ErrTagTooWide is returned when a protocol advertises more bits than its
// declared tag length.
var ErrTagTooWide = errors.New("mtm: tag wider than declared tag length")

// ErrRunFinished is returned by Step once the run is over (protocol Done,
// MaxRounds exhausted, or a prior round failed).
var ErrRunFinished = errors.New("mtm: run already finished")

// NewEngine returns an engine for proto over dyn.
func NewEngine(dyn dyngraph.Dynamic, proto Protocol, cfg Config) *Engine {
	n := dyn.N()
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1 << 22
	}
	if cfg.BitLimit <= 0 {
		lg := bits.Len(uint(n)) + 1
		cfg.BitLimit = 64 * lg * lg * lg
	}
	if cfg.TokenLimit <= 0 {
		cfg.TokenLimit = 4
	}
	e := &Engine{dyn: dyn, proto: proto, cfg: cfg, rngs: make([]*prand.RNG, n),
		tags:    make([]uint64, n),
		acts:    make([]Action, n),
		targets: make([]int32, n),
		inCnt:   make([]int32, n),
		inOff:   make([]int32, n+1),
		inbox:   make([]int32, n),
		conns:   make([]Conn, 0, n/2+1),
		cuts:    make([]int32, 0, 2),
		exCuts:  make([]int32, 0, 2),
		// Shard 0 is sized for a whole matching so the one-shard round
		// never grows it; further shards are added by ensureShards.
		shards: []shard{{view: make([]Neighbor, 0, 64), pairs: make([][2]int32, 0, n/2+1)}},
	}
	e.SetWorkers(cfg.Workers)
	for u := 0; u < n; u++ {
		e.rngs[u] = prand.New(prand.Mix64(cfg.Seed ^ (uint64(u)+1)*0xd6e8feb86659fd93))
	}
	if b := proto.TagBits(); b > 0 {
		if b >= 64 {
			e.tagMask = ^uint64(0)
		} else {
			e.tagMask = (uint64(1) << uint(b)) - 1
		}
	}
	// Delta-capable schedules (internal/mobility) report per-round edge
	// churn; the engine only accounts it — the incremental CSR maintenance
	// happens inside the schedule's At.
	e.deltaDyn, _ = dyn.(dyngraph.DeltaDynamic)
	return e
}

// NodeRNG exposes node u's private stream (used by protocols that need
// initialization randomness before round 1, e.g. SimSharedBit seed choice).
func (e *Engine) NodeRNG(u NodeID) *prand.RNG { return e.rngs[u] }

// SetProtocol swaps the protocol the engine drives. The replacement must
// behave identically to the original (same TagBits, same decisions — e.g.
// a trace.Wrap of it); it exists so observers that tap the protocol layer
// can be attached to an already-constructed engine at a round boundary.
func (e *Engine) SetProtocol(p Protocol) { e.proto = p }

// SetDynamic swaps the topology schedule the engine reads from, at a
// round boundary. The replacement must describe the same node count; the
// next Step queries it at the engine's global round number R, so schedules
// that track motion (internal/mobility) jump deterministically into
// position: the crowd moves once per skipped round (the draws a walk makes)
// but a graph is built only for rounds R−1 and R, whose difference is R's
// churn (dyngraph.Stepper). This is the engine half of phased scenarios
// (Simulation.Rebind): the round counter, meters, RNG streams and
// protocol state all survive the swap untouched.
func (e *Engine) SetDynamic(dyn dyngraph.Dynamic) {
	if dyn.N() != e.dyn.N() {
		panic("mtm: SetDynamic with a different node count")
	}
	e.dyn = dyn
	e.deltaDyn, _ = dyn.(dyngraph.DeltaDynamic)
}

// SetWorkers retunes the shard count at a round boundary (w ≤ 1 is the
// one-shard round, run inline). Worker count affects wall-clock only,
// never results, so it is valid to change mid-run or after a restore:
// checkpoints do not record it, and engines at any worker count produce
// interchangeable, byte-identical checkpoints.
func (e *Engine) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	e.workers = w
}

// Workers returns the resolved shard-worker count (≥ 1).
func (e *Engine) Workers() int { return e.workers }

// SetProfiler attaches (nil detaches) a timing recorder at a round
// boundary. Profiling is a read-only sidecar: it affects wall-clock
// only, never results or checkpoints, so — like SetWorkers — it is
// valid to toggle mid-run or after a restore.
func (e *Engine) SetProfiler(p *profile.Recorder) { e.prof = p }

// Profiler returns the attached timing recorder (nil when profiling is
// off).
func (e *Engine) Profiler() *profile.Recorder { return e.prof }

// start runs the one-time pre-round-1 protocol check (an already-Done
// protocol completes the run in zero rounds, as the closed loop did).
// Restored engines skip it: their checkpoint recorded a started run, and
// re-invoking Done would disturb protocols whose Done has side effects
// (EpsilonGossip counts its calls).
func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	if e.proto.Done() {
		e.completed = true
		e.res.Completed = true
	}
}

// Finished reports whether the run is over: the protocol reached its
// objective, MaxRounds elapsed, or a round failed a model contract.
func (e *Engine) Finished() bool {
	e.start()
	return e.completed || e.failed != nil || e.round >= e.cfg.MaxRounds
}

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// Failed returns the model-contract violation that poisoned the run, if
// any. A failed run reports Finished but its Result is partial.
func (e *Engine) Failed() error { return e.failed }

// Result returns the running totals (final once Finished).
func (e *Engine) Result() Result { return e.res }

// OverBudget reports whether any connection so far exceeded its
// communication budget (surfaced by Run as ErrBudgetExceeded).
func (e *Engine) OverBudget() bool { return e.overBudget }

// Step executes exactly one round and returns its per-round stats. Calling
// Step on a finished run returns ErrRunFinished.
//
// Every phase runs through runPhase over this round's shard boundaries —
// one range [0, n) inline on this goroutine, or several in parallel — and
// the cross-shard reductions between phases run here, sequentially in
// shard order, so the round is the same computation at any shard count.
func (e *Engine) Step() (RoundStats, error) {
	e.start()
	if e.completed || e.round >= e.cfg.MaxRounds {
		return RoundStats{Round: e.round, Done: e.completed}, ErrRunFinished
	}
	if e.failed != nil {
		return RoundStats{Round: e.round}, e.failed
	}

	r := e.round + 1
	stats := RoundStats{Round: r}

	// Profiling marks (no-ops when prof is nil). Timing reads the clock
	// and writes profiling scratch only, so the simulated round below is
	// identical with or without it.
	prof := e.prof != nil
	var tRound, tPhase time.Time
	var phaseNs [profile.NumPhases]int64
	if prof {
		tRound = time.Now()
		tPhase = tRound
	}

	g := e.dyn.At(r)
	if e.deltaDyn != nil {
		d := e.deltaDyn.DeltaFor(r)
		stats.EdgesAdded = d.Added
		stats.EdgesRemoved = d.Removed
		e.res.EdgesAdded += int64(stats.EdgesAdded)
		e.res.EdgesRemoved += int64(stats.EdgesRemoved)
	}
	phaseNs[profile.PhaseChurn] = lap(prof, &tPhase)

	e.g = g
	cuts := e.roundCuts(g, g.N())
	w := len(cuts) - 1
	e.ensureShards(w)
	shards := e.shards[:w]
	// Empty shards run no phase, so their reduction inputs are cleared here.
	for s := range shards {
		sh := &shards[s]
		sh.pairs, sh.props, sh.arrivals, sh.ns = sh.pairs[:0], 0, 0, 0
	}
	e.profParNs = 0

	// Advertise: every node picks its b-bit tag. A violation poisons the
	// run, so every shard's err is nil on entry.
	e.runPhase(phaseTag, cuts)
	for s := range shards {
		if err := shards[s].err; err != nil {
			e.failed = err
			return stats, err
		}
	}

	// Scan + decide.
	e.runPhase(phaseDecide, cuts)

	// Deliver proposals into the flat inbox: validate each against the
	// complete action array, count arrivals per target, and turn the
	// per-shard totals into inbox base offsets — the layout of one prefix
	// sum over all nodes.
	e.runPhase(phaseValidate, cuts)
	e.runPhase(phaseCount, cuts)
	// A one-shard round has nothing to reduce: its reduction time is 0.
	timeRed := prof && w > 1
	var tRed time.Time
	lap(timeRed, &tRed)
	base := int32(0)
	for s := range shards {
		sh := &shards[s]
		stats.Proposals += sh.props
		sh.base = base
		base += sh.arrivals
	}
	redNs := lap(timeRed, &tRed)

	// Accept: each listener with proposals picks one uniformly with its own
	// randomness, so connections form a matching.
	e.runPhase(phaseAccept, cuts)
	phaseNs[profile.PhaseProposal] = lap(prof, &tPhase) - redNs
	phaseNs[profile.PhaseReduction] = redNs

	// Communicate over each accepted connection. Reading the per-shard pair
	// lists in shard order is ascending responder order at any shard count;
	// the Conn records live in the engine's reusable slice.
	conns := e.conns[:0]
	for s := range shards {
		for _, p := range shards[s].pairs {
			u, v := int(p[0]), int(p[1])
			conns = append(conns, Conn{
				Round: r, Initiator: u, Responder: v,
				InitRNG: e.rngs[u], RespRNG: e.rngs[v],
				bitLimit: e.cfg.BitLimit, tokenLimit: e.cfg.TokenLimit,
			})
		}
	}
	e.conns = conns
	e.runPhase(phaseExchange, e.exchangeCuts(len(conns), w))
	for i := range conns {
		c := &conns[i]
		stats.Connections++
		stats.ControlBits += int64(c.bitsUsed)
		stats.TokensMoved += int64(c.tokensUsed)
		if c.overBudget {
			e.overBudget = true
		}
	}
	e.res.Connections += int64(stats.Connections)
	e.res.Proposals += int64(stats.Proposals)
	e.res.ControlBits += stats.ControlBits
	e.res.TokensMoved += stats.TokensMoved
	phaseNs[profile.PhaseExchange] = lap(prof, &tPhase)

	e.round = r
	e.res.Rounds = r
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(r)
	}
	if e.proto.Done() {
		e.completed = true
		e.res.Completed = true
		stats.Done = true
	}
	if prof {
		e.recordProfile(r, time.Since(tRound).Nanoseconds(), phaseNs, w)
	}
	return stats, nil
}

// lap returns the nanoseconds since *t and restarts *t at now; with on
// false it reads no clock and returns 0.
func lap(on bool, t *time.Time) int64 {
	if !on {
		return 0
	}
	now := time.Now()
	ns := now.Sub(*t).Nanoseconds()
	*t = now
	return ns
}

// recordProfile folds the finished round's timing into the recorder,
// summarizing per-shard compute and barrier wait when the round ran
// sharded. It writes only profiling state and never allocates.
func (e *Engine) recordProfile(r int, totalNs int64, phaseNs [profile.NumPhases]int64, workers int) {
	rp := profile.RoundProfile{Round: r, TotalNs: totalNs, PhaseNs: phaseNs, Workers: workers}
	if workers > 1 {
		minNs, maxNs, sum := e.shards[0].ns, e.shards[0].ns, int64(0)
		for s := range e.shards[:workers] {
			ns := e.shards[s].ns
			sum += ns
			if ns > maxNs {
				maxNs = ns
			}
			if ns < minNs {
				minNs = ns
			}
		}
		rp.MaxShardNs, rp.MinShardNs = maxNs, minNs
		rp.MeanShardNs = sum / int64(workers)
		// Total time ranges spent waiting at phase barriers: every range a
		// parallel phase launched was live for that phase's wall time, and
		// whatever it did not spend computing it spent waiting.
		if wait := e.profParNs - sum; wait > 0 {
			rp.BarrierNs = wait
		}
	}
	e.prof.Record(rp)
}

// Run executes rounds until the protocol is Done or MaxRounds elapse — the
// closed-loop wrapper over the Step machine that preserves the original
// blocking API (and its semantics: budget violations surface only after
// the run finishes).
func (e *Engine) Run() (Result, error) {
	for !e.Finished() {
		if _, err := e.Step(); err != nil {
			return e.res, err
		}
	}
	if e.failed != nil {
		// A run poisoned by an earlier Step must keep reporting its
		// failure, not convert the partial Result into a clean return.
		return e.res, e.failed
	}
	if e.overBudget {
		return e.res, ErrBudgetExceeded
	}
	return e.res, nil
}

// CheckpointTo serializes the engine's mutable state: the step-machine
// flags, the running meters, and every node's RNG stream. Scratch buffers
// carry no live state at a round boundary and are not serialized.
func (e *Engine) CheckpointTo(w *ckpt.Writer) {
	w.Section("mtm.engine")
	w.Bool(e.started)
	w.Bool(e.completed)
	w.Bool(e.overBudget)
	w.Int(e.round)
	w.Int(e.res.Rounds)
	w.Bool(e.res.Completed)
	w.I64(e.res.Connections)
	w.I64(e.res.Proposals)
	w.I64(e.res.ControlBits)
	w.I64(e.res.TokensMoved)
	w.I64(e.res.EdgesAdded)
	w.I64(e.res.EdgesRemoved)
	w.U64(uint64(len(e.rngs)))
	for _, rng := range e.rngs {
		s := rng.State()
		w.U64(s[0])
		w.U64(s[1])
		w.U64(s[2])
		w.U64(s[3])
	}
}

// RestoreFrom loads a CheckpointTo stream into a freshly constructed
// engine for the same configuration.
func (e *Engine) RestoreFrom(r *ckpt.Reader) error {
	r.Section("mtm.engine")
	e.started = r.Bool()
	e.completed = r.Bool()
	e.overBudget = r.Bool()
	e.round = r.Int()
	e.res.Rounds = r.Int()
	e.res.Completed = r.Bool()
	e.res.Connections = r.I64()
	e.res.Proposals = r.I64()
	e.res.ControlBits = r.I64()
	e.res.TokensMoved = r.I64()
	e.res.EdgesAdded = r.I64()
	e.res.EdgesRemoved = r.I64()
	n := int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(e.rngs) {
		return fmt.Errorf("mtm: checkpoint has %d node RNGs, engine has %d", n, len(e.rngs))
	}
	for _, rng := range e.rngs {
		rng.SetState([4]uint64{r.U64(), r.U64(), r.U64(), r.U64()})
	}
	return r.Err()
}
