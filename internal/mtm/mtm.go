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
// schedule. A round is one straight-line pass over the nodes on the calling
// goroutine — tag, decide, then deliver and accept if anyone proposed —
// but for the exchanges, which a large round fans out, and for a round the
// protocol declares quiet, which skips tag and decide; all randomness is
// drawn from per-node streams, so a seed fixes the execution at any
// GOMAXPROCS.
package mtm

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
)

// NodeID identifies a node; nodes are 0..n-1.
type NodeID = int

// View is a node's per-round scan, read straight from the engine's arrays:
// IDs are the node's neighbors (the topology's adjacency list, ascending)
// and Tags is every node's advertisement this round, indexed by node id, so
// neighbor v advertises Tags[v] and the node itself Tags[node]. Both slices
// belong to the engine: Decide must neither modify nor retain them.
type View struct {
	IDs  []int32
	Tags []uint64
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
// explicit node ids, in round phase order: Tag for every node, then Decide
// for every node in ascending id, both from one goroutine, then Exchange
// for every accepted connection, concurrently and in any order. Tag and
// Decide for node u read/write only u's state (Decide reads its neighbors
// only through the view); Exchange reads/writes only its two endpoints'
// states and its Conn, so one round's Exchange calls never share a node.
//
// A protocol may also implement Quiet(r int) bool, which the engine asks at
// the start of round r, after the topology step. On true it skips that
// round's Tag and Decide calls. Quiet(r) may return true only if, in round
// r, no node would advertise a nonzero tag, propose, or change any state
// that a later round, Done or a checkpoint reads. A wrapper that does not
// forward Quiet simply runs every round in full.
type Protocol interface {
	// TagBits returns the tag length b >= 0 the protocol uses.
	TagBits() int
	// Tag returns node's advertisement for round r.
	Tag(r int, node NodeID) uint64
	// Decide returns node's action for round r given its scan view. rng is
	// the node's private randomness stream.
	Decide(r int, node NodeID, view View, rng *prand.RNG) Action
	// Exchange performs the bounded pairwise communication over an accepted
	// connection. From a fanned-out round a panic reaches Step's caller
	// with its value but Step's stack (GOMAXPROCS 1 keeps the original).
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
	// BitLimit overrides the per-connection control-bit budget
	// (default 64·(⌈log₂ N⌉+1)³, a generous polylog(N)).
	BitLimit int
	// TokenLimit overrides the per-connection token budget (default 4,
	// an O(1)).
	TokenLimit int
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
// completion, and Layout lays out the engine's mutable
// state (round counter, meters, per-node RNG streams) so a run can be
// resumed byte-identically at any round boundary.
//
// All per-round working state lives in scratch buffers owned by the engine
// and allocated once in NewEngine: tag and action arrays, the flat proposal
// inbox (CSR-style counts + offsets + one backing array) and the Conn
// records themselves; a scan view is the adjacency slice and the tag array.
// The round loop therefore performs zero steady-state heap allocations —
// see DESIGN.md §"Scratch-buffer lifecycle".
type Engine struct {
	dyn   dyngraph.Dynamic
	proto Protocol
	quiet interface{ Quiet(r int) bool } // proto's quiet-round test, if any
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
	inCnt   []int32  // valid proposals per target node, then the fill cursor
	inOff   []int32  // prefix offsets into inbox
	inbox   []int32  // flat proposal inbox: proposers grouped by target
	conns   []Conn
	x       fanout // exchange fan-out state (see Engine.exchange)

	// The next epoch's stage (see Engine.offerStage): the schedule, if it
	// can stage, and the stage a helper is running, if any.
	stager     dyngraph.Stager
	staging    bool
	stageDone  chan struct{} // the helper running the stage signals here
	stagePanic any           // the stage's panic, for joinStage to re-raise

	// Profiling sidecar (nil = off; see internal/profile and DESIGN.md
	// §13). Timing is read-only: it draws no randomness and mutates no
	// simulation state, so profiled and unprofiled runs are
	// byte-identical.
	prof *profile.Recorder
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
		inOff:   make([]int32, n),
		inbox:   make([]int32, n),
		conns:   make([]Conn, 0, n/2+1),
		x:       fanout{wake: make(chan struct{}, 1)},

		stageDone: make(chan struct{}, 1),
	}
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
	e.stager, _ = dyn.(dyngraph.Stager)
	e.quiet, _ = proto.(interface{ Quiet(r int) bool })
	return e
}

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
	e.stager, _ = dyn.(dyngraph.Stager)
}

// SetProfiler attaches (nil detaches) a timing recorder at a round
// boundary. Profiling is a read-only sidecar: it affects wall-clock
// only, never results or checkpoints, so it is valid to toggle mid-run
// or after a restore.
func (e *Engine) SetProfiler(p *profile.Recorder) { e.prof = p }

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
// The round's phases run in order over the nodes [0, n), each loop
// hoisting the arrays it walks into locals: indexing them through the
// receiver measurably slows rounds that are all fixed cost.
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
	if e.offerStage(r + 1) {
		defer e.joinStage() // on a panic; joined below otherwise
	}
	phaseNs[profile.PhaseChurn] = lap(prof, &tPhase)

	// A quiet round (see Protocol) skips advertise and decide: every tag
	// would be 0 and every action Listen. The tags and acts arrays keep an
	// earlier round's values, which nothing reads: delivery runs only when
	// someone proposed.
	acts, rngs := e.acts, e.rngs
	if e.quiet == nil || !e.quiet.Quiet(r) {
		// Advertise: every node picks its b-bit tag. The first violation,
		// at the lowest node, poisons the run.
		tags, proto, mask := e.tags, e.proto, e.tagMask
		for u := range tags {
			tags[u] = proto.Tag(r, u)
			if tags[u]&^mask != 0 {
				e.failed = fmt.Errorf("%w: node %d round %d tag %#x with b=%d",
					ErrTagTooWide, u, r, tags[u], proto.TagBits())
				return stats, e.failed
			}
		}

		// Scan + decide, each node drawing from its own stream. A round
		// in which nobody proposes ends here: delivery and acceptance
		// would draw nothing and connect nobody.
		for u := range acts {
			acts[u] = proto.Decide(r, u, View{IDs: g.Adjacency(u), Tags: tags}, rngs[u])
			if acts[u].Propose {
				stats.Proposals++
			}
		}
	}
	conns := e.conns[:0]
	if stats.Proposals > 0 {
		// Deliver: validate each proposal and count arrivals per target. A
		// proposer cannot receive, so proposals to proposers are lost (the
		// target is busy sending), as are malformed ones.
		targets, inCnt, inOff, inbox := e.targets, e.inCnt, e.inOff, e.inbox
		n := len(targets)
		clear(inCnt)
		for u := range targets {
			targets[u] = -1
			if !acts[u].Propose {
				continue
			}
			t := acts[u].Target
			if t < 0 || t >= n || t == u || !g.HasEdge(u, t) || acts[t].Propose {
				continue
			}
			targets[u] = int32(t)
			inCnt[t]++
		}
		// One prefix sum lays out the inbox; inCnt is then the fill
		// cursor, so proposers group by target in ascending proposer order.
		off := int32(0)
		for v := range inOff {
			inOff[v] = off
			off += inCnt[v]
			inCnt[v] = 0
		}
		for u, t := range targets {
			if t >= 0 {
				inbox[inOff[t]+inCnt[t]] = int32(u)
				inCnt[t]++
			}
		}

		// Accept: each listener with proposals picks one uniformly with its
		// own randomness, so connections form a matching, listed in
		// ascending responder order in the engine's reusable Conn slice.
		for v, c := range inCnt {
			if c == 0 {
				continue
			}
			u := int(inbox[inOff[v]+int32(rngs[v].Intn(int(c)))])
			conns = append(conns, Conn{
				Round: r, Initiator: u, Responder: v,
				InitRNG: rngs[u], RespRNG: rngs[v],
				bitLimit: e.cfg.BitLimit, tokenLimit: e.cfg.TokenLimit,
			})
		}
	}
	e.conns = conns
	phaseNs[profile.PhaseProposal] = lap(prof, &tPhase)

	// Communicate over each connection, then meter them in responder order.
	e.exchange(r)
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
	e.joinStage()
	phaseNs[profile.PhaseChurn] += lap(prof, &tPhase)

	e.round = r
	e.res.Rounds = r
	if e.proto.Done() {
		e.completed = true
		e.res.Completed = true
		stats.Done = true
	}
	if prof {
		e.prof.Record(profile.RoundProfile{Round: r, TotalNs: time.Since(tRound).Nanoseconds(), PhaseNs: phaseNs})
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

// exchangeMin is the fewest connections for which a round fans its
// exchanges out. A constant of the engine: only tests lower it.
var exchangeMin = 64

// Parked helpers run exchange chunks and epoch stages for every engine in
// the process. They grow on demand to GOMAXPROCS−1 and live as long as the
// process; between offers (an engine and its fan-out generation, or an
// engine and the round to stage) a helper holds no engine. Offers are
// unbuffered, so one succeeds only if a helper is parked.
var (
	helperMu     sync.Mutex
	helpers      int
	helperOffers = make(chan offer)
)

type offer struct {
	e     *Engine
	gen   uint32
	stage int // the round whose epoch to stage; 0 for exchange chunks
}

// offerStage hands Stage(r) to a parked helper, to run beside round r−1's
// proposal and exchange, and reports whether one took it. The topology
// sequence is fixed before the execution (§2), so round r's epoch does not
// depend on what round r−1 exchanges — unless a strategy reads the live
// state, which the schedule's Stageable rules out along with an epoch that
// r does not open. A round past MaxRounds, GOMAXPROCS 1 or no parked helper
// leaves the epoch to At(r), which stages and commits it inline the same
// way. There is no node minimum: staged, a waypoint run is no slower than
// inline at any n measured, 200 to 8192 (DESIGN §5).
func (e *Engine) offerStage(r int) bool {
	if e.stager == nil || r > e.cfg.MaxRounds || !e.stager.Stageable(r) || runtime.GOMAXPROCS(0) == 1 {
		return false
	}
	select {
	case helperOffers <- offer{e: e, stage: r}:
		e.staging = true
	default:
	}
	return e.staging
}

// joinStage waits for the stage a helper is running, if any, and re-raises
// its panic on the caller's goroutine. Step joins before it returns, so no
// stage outlives a Step: checkpoints, rebinds and events see committed
// schedule state only.
func (e *Engine) joinStage() {
	if !e.staging {
		return
	}
	e.staging = false
	<-e.stageDone
	if v := e.stagePanic; v != nil {
		e.stagePanic = nil
		panic(v)
	}
}

// stage runs an offered stage on a helper, keeping its panic for joinStage,
// then claims what is left of the round's exchange if it fans out: the
// caller, which runs it alone while the helper stages, waits for those
// chunks as for any helper's.
func (e *Engine) stage(r int) {
	defer func() {
		e.stagePanic = recover()
		e.stageDone <- struct{}{}
	}()
	e.stager.Stage(r)
	if e.work(uint32(e.x.claim.Load() >> 32)) {
		e.x.wake <- struct{}{}
	}
}

// fanout is an engine's state for its current fanned-out round.
type fanout struct {
	gen     uint32
	claim   atomic.Uint64 // gen<<32 | chunks<<16 | next unclaimed chunk
	done    atomic.Int32  // chunks finished
	wake    chan struct{} // a helper that finishes the last chunk signals here
	mu      sync.Mutex
	panicV  any // the panic of the lowest chunk that panicked
	panicAt int
}

// exchange runs Exchange over every connection of round r. The connections
// form a matching, so a round of at least exchangeMin of them is cut into
// contiguous chunks that this goroutine and any parked helpers claim; it
// waits only for chunks a running helper claimed. Once every claimed chunk
// is done, the lowest panicking chunk's value is re-raised here.
func (e *Engine) exchange(r int) {
	conns, w := e.conns, 1
	if len(conns) >= exchangeMin {
		w = runtime.GOMAXPROCS(0)
	}
	if w == 1 {
		for i := range conns {
			e.proto.Exchange(r, &conns[i])
		}
		return
	}
	helperMu.Lock()
	for ; helpers < w-1; helpers++ {
		go helper()
	}
	helperMu.Unlock()
	x := &e.x
	x.gen++
	x.done.Store(0)
	// Storing the claim word publishes the round to whoever claims from it.
	x.claim.Store(uint64(x.gen)<<32 | uint64(min(4*w, len(conns), 1<<16-1))<<16)
	for i := 1; i < w; i++ {
		select {
		case helperOffers <- offer{e: e, gen: x.gen}:
		default:
			i = w // no helper is parked: claim the rest here
		}
	}
	if !e.work(x.gen) {
		<-x.wake
	}
	if v := x.panicV; v != nil {
		x.panicV = nil
		panic(v)
	}
}

func helper() {
	for o := range helperOffers {
		switch {
		case o.stage > 0:
			o.e.stage(o.stage)
		case o.e.work(o.gen):
			o.e.x.wake <- struct{}{}
		}
	}
}

// work runs chunks of fan-out gen until none is left and reports whether it
// finished the last; a helper that gets false must not touch e again.
func (e *Engine) work(gen uint32) (last bool) {
	for {
		v := e.x.claim.Load()
		i, n := int(v&0xffff), int(v>>16&0xffff)
		if uint32(v>>32) != gen || i >= n {
			return last
		}
		if e.x.claim.CompareAndSwap(v, v+1) {
			e.runChunk(i, n)
			last = e.x.done.Add(1) == int32(n)
		}
	}
}

// runChunk runs chunk i of n, keeping a panic for exchange to re-raise.
func (e *Engine) runChunk(i, n int) {
	defer func() {
		if v := recover(); v != nil {
			e.x.mu.Lock()
			if e.x.panicV == nil || i < e.x.panicAt {
				e.x.panicV, e.x.panicAt = v, i
			}
			e.x.mu.Unlock()
		}
	}()
	for j := i * len(e.conns) / n; j < (i+1)*len(e.conns)/n; j++ {
		e.proto.Exchange(e.conns[j].Round, &e.conns[j])
	}
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

// Layout lays out the engine's mutable state: the step-machine flags, the
// running meters, and every node's RNG stream. Scratch buffers carry no
// live state at a round boundary and are not laid out.
func (e *Engine) Layout(c ckpt.Fields) error {
	c.Section("mtm.engine")
	c.Bool(&e.started)
	c.Bool(&e.completed)
	c.Bool(&e.overBudget)
	c.Int(&e.round)
	c.Int(&e.res.Rounds)
	c.Bool(&e.res.Completed)
	c.I64(&e.res.Connections)
	c.I64(&e.res.Proposals)
	c.I64(&e.res.ControlBits)
	c.I64(&e.res.TokensMoved)
	c.I64(&e.res.EdgesAdded)
	c.I64(&e.res.EdgesRemoved)
	n := uint64(len(e.rngs))
	c.U64(&n)
	if err := c.Err(); err != nil {
		return err
	}
	if int(n) != len(e.rngs) {
		return fmt.Errorf("mtm: checkpoint has %d node RNGs, engine has %d", int(n), len(e.rngs))
	}
	var st [4]uint64
	for _, rng := range e.rngs {
		st = rng.State()
		for i := range st {
			c.U64(&st[i])
		}
		rng.SetState(st) // on a write, the state it already holds
	}
	return c.Err()
}
