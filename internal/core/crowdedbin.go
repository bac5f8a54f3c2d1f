package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/rumor"
)

// CrowdedBin is the §6 algorithm for b = 1 and a stable topology (τ = ∞),
// solving gossip in O((1/α)·k·log⁶N) rounds. Nodes do not know k; they run
// log N parallel instances, instance i testing the estimate k_i = 2^i, by
// round-robin simulation (real round r simulates one round of instance
// ((r−1) mod log N) + 1). Each instance's simulated schedule is
//
//	phase = k_i bins,  bin = γ·logN blocks,  block = ℓ + logN rounds,
//
// with ℓ = β·logN the tag width. Every token owner draws a tag from
// [1, 2^ℓ) and, per instance, throws its token into a uniform bin. A node
// participating in a phase spells out — bit by bit with its advertising
// tag — the h-th smallest tag it knows for the current bin during the first
// ℓ rounds of block h, and runs PPUSH for that tag's token during the last
// logN rounds of the block (informed iff it owns the token). A node
// upgrades its estimate when it sees advertising activity on a higher
// instance, or when one of its current instance's bins crowds (≥ γ·logN
// known tags) — the balls-in-bins evidence (Lemma 6.4) that k_i < k.
// Upgrades are applied only between phases; estimates never decrease.
type CrowdedBin struct {
	st  *State
	cfg CrowdedBinConfig

	logN     int // L: instance count and PPUSH sub-round count
	tagLen   int // ℓ = β·L
	blockLen int // ℓ + L
	binLen   int // γ·L blocks per bin × blockLen
	blocks   int // γ·L

	est     []int // current estimate index (1..logN)
	pending []int // deferred upgrade target (0 = none)

	activeInst []int // committed instance (0 = idle)
	startSim   []int // sim round at which the committed phase started

	// The round of the latest Tag call, decomposed once for every node, and
	// whether some node advertises 1 in it.
	round, inst, sim int
	someOne          bool

	// per-round scratch, filled by step() in Tag, consumed by Decide/Exchange
	stepRound []int
	curBit    []uint64
	curKey    []int // active (instance,bin) key; -1 when idle this round
	curQ      []int // position within block
	pushToken []int // token to push this round (0 = uninformed)
	pushTag   []uint64

	// deferred end-of-bin / end-of-phase events (executed next round)
	deferMerge []int // bin key to merge, -1 = none
	deferPhase []bool

	// Counters behind Quiet, derived from the arrays above: kept at every
	// write, recounted by RestoreFrom, never serialized. activeCnt[i]
	// counts the nodes with activeInst == i (index 0: the idle ones);
	// deferCnt the pending deferMerge and deferPhase events.
	activeCnt []int
	deferCnt  int

	tags    []map[int][]uint64 // known tags per (instance,bin) key, sorted
	stash   []map[int][]uint64 // tags heard this bin, merged at bin end
	hear    [][]heard          // spelled-bit accumulators, ascending neighbor id
	tokenOf []map[uint64]int   // tag -> owned/learned token id
}

// heard accumulates the bits neighbor id has spelled in the current block.
type heard struct {
	id  int32
	acc uint64
}

// CrowdedBinConfig tunes the schedule constants. The paper's analysis wants
// β ≥ c+3 and γ ≥ 3c+9 for failure probability N^{-c}; the defaults trade
// those constants down (β = 2, γ = 2) for simulation speed, which preserves
// the Õ(k/α) shape measured by the benchmarks.
type CrowdedBinConfig struct {
	Beta  int
	Gamma int
}

func (c *CrowdedBinConfig) setDefaults() {
	if c.Beta <= 0 {
		c.Beta = 2
	}
	if c.Gamma <= 0 {
		c.Gamma = 2
	}
}

var (
	_ mtm.Protocol                   = (*CrowdedBin)(nil)
	_ interface{ Quiet(r int) bool } = (*CrowdedBin)(nil)
)

// ErrMultiTokenStart reports an assignment giving one node several tokens,
// which §6's per-node tag scheme does not support.
var ErrMultiTokenStart = errors.New("core: CrowdedBin requires at most one starting token per node")

// ErrCheckpointHear reports a checkpointed spelled-bit accumulator list that
// no run writes: longer than n, or with ids not strictly ascending in [0, n).
var ErrCheckpointHear = errors.New("core: CrowdedBin checkpoint has a malformed hear list")

// ErrCheckpointSchedule reports a checkpointed estimate, pending upgrade or
// committed instance outside the instances a run has: est in [1, logN],
// pending and activeInst in [0, logN].
var ErrCheckpointSchedule = errors.New("core: CrowdedBin checkpoint has an out-of-range schedule")

// NewCrowdedBin builds a CrowdedBin protocol over st. rng supplies the
// per-owner tag and bin draws (each node's private initialization
// randomness).
func NewCrowdedBin(st *State, cfg CrowdedBinConfig, rng *prand.RNG) (*CrowdedBin, error) {
	cfg.setDefaults()
	n := st.n
	logN := bits.Len(uint(st.universe - 1))
	if logN < 2 {
		logN = 2
	}
	tagLen := cfg.Beta * logN
	if tagLen > 62 {
		return nil, errors.New("core: CrowdedBin tag width exceeds 62 bits; lower Beta or N")
	}
	p := &CrowdedBin{
		st: st, cfg: cfg,
		logN: logN, tagLen: tagLen,
		blockLen: tagLen + logN,
		blocks:   cfg.Gamma * logN,

		est:     make([]int, n),
		pending: make([]int, n),

		activeInst: make([]int, n),
		startSim:   make([]int, n),

		stepRound: make([]int, n),
		curBit:    make([]uint64, n),
		curKey:    make([]int, n),
		curQ:      make([]int, n),
		pushToken: make([]int, n),
		pushTag:   make([]uint64, n),

		deferMerge: make([]int, n),
		deferPhase: make([]bool, n),
		activeCnt:  make([]int, logN+1),

		tags:    make([]map[int][]uint64, n),
		stash:   make([]map[int][]uint64, n),
		hear:    make([][]heard, n),
		tokenOf: make([]map[uint64]int, n),
	}
	p.binLen = p.blocks * p.blockLen
	p.activeCnt[0] = n
	for u := 0; u < n; u++ {
		p.est[u] = 1
		p.curKey[u] = -1
		p.deferMerge[u] = -1
		p.tags[u] = make(map[int][]uint64)
		p.stash[u] = make(map[int][]uint64)
		p.tokenOf[u] = make(map[uint64]int)
	}
	// Initialization (§6.1): every token owner draws a nonzero ℓ-bit tag and
	// a uniform bin per instance.
	seen := make(map[int]bool, n)
	for u := 0; u < n; u++ {
		toks := st.sets[u].Tokens()
		if len(toks) > 1 {
			return nil, ErrMultiTokenStart
		}
		if len(toks) == 0 {
			continue
		}
		if seen[u] {
			return nil, ErrMultiTokenStart
		}
		seen[u] = true
		tag := uint64(1 + rng.Intn((1<<uint(tagLen))-1))
		p.tokenOf[u][tag] = toks[0]
		for i := 1; i <= logN; i++ {
			bin := rng.Intn(1 << uint(i)) // uniform over k_i bins
			key := p.binKey(i, bin)
			p.tags[u][key] = []uint64{tag}
		}
	}
	return p, nil
}

// State exposes the run state for instrumentation.
func (p *CrowdedBin) State() *State { return p.st }

// Estimate returns node u's current instance estimate index (k̂ = 2^est).
func (p *CrowdedBin) Estimate(u mtm.NodeID) int { return p.est[u] }

// binKey packs (instance, bin) into one map key.
func (p *CrowdedBin) binKey(inst, bin int) int { return inst<<32 | bin }

// phaseLen returns P_i, the simulated rounds per phase of instance i.
func (p *CrowdedBin) phaseLen(inst int) int {
	return (1 << uint(inst)) * p.binLen
}

// decompose maps a real round to (instance, simulated round), read from the
// cache when r is the round Tag last saw.
func (p *CrowdedBin) decompose(r int) (inst, sim int) {
	if r == p.round {
		return p.inst, p.sim
	}
	return (r-1)%p.logN + 1, (r-1)/p.logN + 1
}

// globalBin returns the phase-aligned bin index active at simulated round s
// of instance inst (the same for every node, committed or not).
func (p *CrowdedBin) globalBin(inst, sim int) int {
	return ((sim - 1) % p.phaseLen(inst)) / p.binLen
}

// TagBits implements mtm.Protocol (b = 1).
func (p *CrowdedBin) TagBits() int { return 1 }

// Tag implements mtm.Protocol: advance node state and emit this round's bit.
// The round's first call decomposes r for every node.
func (p *CrowdedBin) Tag(r int, u mtm.NodeID) uint64 {
	if r != p.round {
		p.inst, p.sim = p.decompose(r)
		p.round, p.someOne = r, false
	}
	p.step(u, r)
	p.someOne = p.someOne || p.curBit[u] == 1
	return p.curBit[u]
}

// Quiet implements the engine's optional quiet-round test in O(1). Round r
// is quiet when no deferred event is pending, nobody is committed to r's
// instance, and r is not a phase boundary of that instance. Then every
// node's step only resets its per-round scratch, every tag is 0, and every
// Decide listens without upgrading. Every phase boundary counts as busy,
// although one with no idle node waiting for the instance would be quiet:
// counting the waiting nodes would need a counter that Exchange writes
// (a push that crowds a bin upgrades an idle responder), and one round's
// exchanges run concurrently.
func (p *CrowdedBin) Quiet(r int) bool {
	inst, sim := p.decompose(r)
	return p.deferCnt == 0 && p.activeCnt[inst] == 0 && (sim-1)%p.phaseLen(inst) != 0
}

// setActive commits node u to instance inst (0 = idle), keeping activeCnt.
func (p *CrowdedBin) setActive(u mtm.NodeID, inst int) {
	p.activeCnt[p.activeInst[u]]--
	p.activeInst[u] = inst
	p.activeCnt[inst]++
}

// step performs node u's per-round state transition for round r. It runs in
// the engine's sequential advertise phase, so cross-node writes are safe —
// but it only ever touches u's state.
func (p *CrowdedBin) step(u mtm.NodeID, r int) {
	if p.stepRound[u] == r {
		return
	}
	p.stepRound[u] = r

	// Finalize last round's deferred events ("once the rounds dedicated to
	// bin j conclude", "complete the phase ... before switching").
	if key := p.deferMerge[u]; key >= 0 {
		p.deferMerge[u] = -1
		p.deferCnt--
		p.mergeStash(u, key)
	}
	if p.deferPhase[u] {
		p.deferPhase[u] = false
		p.deferCnt--
		p.setActive(u, 0)
		if p.pending[u] > p.est[u] {
			p.est[u] = p.pending[u]
		}
		p.pending[u] = 0
	}

	inst, sim := p.decompose(r)
	p.curBit[u] = 0
	p.curKey[u] = -1
	p.pushToken[u] = 0

	// Commit to a fresh phase of the node's current instance.
	if p.activeInst[u] == 0 && p.est[u] == inst && (sim-1)%p.phaseLen(inst) == 0 {
		p.setActive(u, inst)
		p.startSim[u] = sim
	}
	if p.activeInst[u] != inst {
		return // idle during other instances' rounds (watching for activity)
	}
	pos := sim - p.startSim[u]
	pl := p.phaseLen(inst)
	if pos < 0 || pos >= pl {
		return
	}
	bin := pos / p.binLen
	inBin := pos % p.binLen
	block := inBin / p.blockLen
	q := inBin % p.blockLen
	key := p.binKey(inst, bin)
	p.curKey[u] = key
	p.curQ[u] = q

	if q < p.tagLen {
		// Spelling rounds: advertise bit q of the block-th smallest tag.
		if q == 0 {
			p.hear[u] = p.hear[u][:0]
		}
		known := p.tags[u][key]
		if block < len(known) {
			p.curBit[u] = (known[block] >> uint(p.tagLen-1-q)) & 1
		}
	} else {
		// PPUSH rounds for this block's tag.
		known := p.tags[u][key]
		if block < len(known) {
			if tok, ok := p.tokenOf[u][known[block]]; ok {
				p.curBit[u] = 1
				p.pushToken[u] = tok
				p.pushTag[u] = known[block]
			}
		}
	}

	// Both events were consumed above, so each set adds one.
	if inBin == p.binLen-1 {
		p.deferMerge[u] = key
		p.deferCnt++
	}
	if pos == pl-1 {
		p.deferPhase[u] = true
		p.deferCnt++
	}
}

// Decide implements mtm.Protocol.
func (p *CrowdedBin) Decide(r int, u mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	inst, _ := p.decompose(r)

	// Activity watch: a 1-bit on a higher instance proves someone upgraded.
	// A round in which nobody advertises 1 has nothing to watch.
	if inst > p.est[u] && p.someOne {
		for _, v := range view.IDs {
			if view.Tags[v] == 1 {
				p.upgradeTo(u, inst)
				break
			}
		}
	}
	if p.curKey[u] < 0 {
		return mtm.Listen()
	}
	if q := p.curQ[u]; q < p.tagLen {
		// Collect neighbors' spelled bits, merging the ascending view into
		// the ascending accumulators; stash completed nonzero tags in
		// ascending neighbor id order.
		h, i := p.hear[u], 0
		for _, v := range view.IDs {
			for i < len(h) && h[i].id < v {
				i++
			}
			if i == len(h) || h[i].id != v {
				h = slices.Insert(h, i, heard{id: v})
			}
			h[i].acc = h[i].acc<<1 | view.Tags[v]
		}
		p.hear[u] = h
		if q == p.tagLen-1 {
			for _, e := range h {
				if e.acc != 0 {
					p.stashTag(u, p.curKey[u], e.acc)
				}
			}
		}
		return mtm.Listen()
	}
	// PPUSH sub-round.
	if p.pushToken[u] != 0 {
		return rumor.DecidePush(view, rng)
	}
	return mtm.Listen()
}

// Exchange implements mtm.Protocol: push the initiator's block token (with
// its tag) to the responder.
func (p *CrowdedBin) Exchange(r int, c *mtm.Conn) {
	u, v := c.Initiator, c.Responder
	tok := p.pushToken[u]
	if tok == 0 {
		return
	}
	tag := p.pushTag[u]
	c.ChargeTokens(1)
	c.ChargeBits(p.tagLen + 2)
	if !p.st.sets[v].Has(tok) {
		p.st.sets[v].Add(tok)
	}
	p.tokenOf[v][tag] = tok
	// Attribute the tag to the globally active bin of this round.
	inst, sim := p.decompose(r)
	p.stashTag(v, p.binKey(inst, p.globalBin(inst, sim)), tag)
	if p.deferMerge[v] < 0 { // merge promptly if no bin end is pending
		p.mergeStash(v, p.binKey(inst, p.globalBin(inst, sim)))
	}
}

// Done implements mtm.Protocol.
func (p *CrowdedBin) Done() bool { return p.st.AllDone() }

// CheckpointTo serializes every node's mutable schedule state as a function
// of that state: maps in sorted key order, stash lists in the order heard (a
// block's spelled tags in ascending neighbor id). The spelled-bit
// accumulators (hear) are live across round boundaries — a block's spelling
// rounds are logN engine rounds apart under the round-robin simulation —
// and are serialized too. The per-round scratch (curBit, curKey, pushToken,
// the round cache, …) is dead at a round boundary; the next Tag redoes it.
func (p *CrowdedBin) CheckpointTo(w *ckpt.Writer) {
	w.Section("crowdedbin")
	n := p.st.n
	w.Int(n)
	w.Ints(p.est)
	w.Ints(p.pending)
	w.Ints(p.activeInst)
	w.Ints(p.startSim)
	w.Ints(p.deferMerge)
	w.Bools(p.deferPhase)
	for u := 0; u < n; u++ {
		writeTagMap(w, p.tags[u])
		writeTagMap(w, p.stash[u])

		w.U64(uint64(len(p.hear[u])))
		for _, e := range p.hear[u] {
			w.Int(int(e.id))
			w.U64(e.acc)
		}

		tokKeys := make([]uint64, 0, len(p.tokenOf[u]))
		for k := range p.tokenOf[u] {
			tokKeys = append(tokKeys, k)
		}
		sort.Slice(tokKeys, func(i, j int) bool { return tokKeys[i] < tokKeys[j] })
		w.U64(uint64(len(tokKeys)))
		for _, k := range tokKeys {
			w.U64(k)
			w.Int(p.tokenOf[u][k])
		}
	}
}

// RestoreFrom loads a CheckpointTo stream into a protocol freshly built
// from the same configuration, replacing the initialization draws with the
// checkpointed state.
func (p *CrowdedBin) RestoreFrom(r *ckpt.Reader) error {
	r.Section("crowdedbin")
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != p.st.n {
		return fmt.Errorf("core: CrowdedBin checkpoint for %d nodes, protocol has %d", n, p.st.n)
	}
	for _, dst := range [][]int{p.est, p.pending, p.activeInst, p.startSim, p.deferMerge} {
		r.IntsInto(dst)
	}
	r.BoolsInto(p.deferPhase)
	if err := r.Err(); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		p.tags[u] = readTagMap(r)
		p.stash[u] = readTagMap(r)

		hearLen := r.U64()
		if hearLen > uint64(n) {
			return fmt.Errorf("%w: node %d hears %d neighbors of %d nodes", ErrCheckpointHear, u, hearLen, n)
		}
		hear := make([]heard, 0, hearLen)
		for prev := -1; len(hear) < int(hearLen) && r.Err() == nil; {
			id, acc := r.Int(), r.U64()
			if r.Err() == nil && (id <= prev || id >= n) {
				return fmt.Errorf("%w: node %d hears id %d after id %d", ErrCheckpointHear, u, id, prev)
			}
			prev = id
			hear = append(hear, heard{int32(id), acc})
		}
		p.hear[u] = hear

		tokLen := int(r.U64())
		tokenOf := make(map[uint64]int, tokLen)
		for i := 0; i < tokLen && r.Err() == nil; i++ {
			k := r.U64()
			tokenOf[k] = r.Int()
		}
		p.tokenOf[u] = tokenOf

		// The per-round step guard restarts cleanly: any value below the
		// resumed round works, and rounds are 1-based.
		p.stepRound[u] = 0
	}
	p.round = 0
	if err := r.Err(); err != nil {
		return err
	}
	return p.recount()
}

// recount range-checks the restored schedule arrays, which index the
// counters, and rebuilds the counters from them.
func (p *CrowdedBin) recount() error {
	clear(p.activeCnt)
	p.deferCnt = 0
	for u, est := range p.est {
		pending, active := p.pending[u], p.activeInst[u]
		if est < 1 || est > p.logN || pending < 0 || pending > p.logN || active < 0 || active > p.logN {
			return fmt.Errorf("%w: node %d has est %d, pending %d, activeInst %d with %d instances",
				ErrCheckpointSchedule, u, est, pending, active, p.logN)
		}
		p.activeCnt[active]++
		if p.deferMerge[u] >= 0 {
			p.deferCnt++
		}
		if p.deferPhase[u] {
			p.deferCnt++
		}
	}
	return nil
}

// writeTagMap serializes a per-node (instance,bin)→tags map sorted by key.
func writeTagMap(w *ckpt.Writer, m map[int][]uint64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.U64s(m[k])
	}
}

// readTagMap deserializes a writeTagMap stream.
func readTagMap(r *ckpt.Reader) map[int][]uint64 {
	n := int(r.U64())
	m := make(map[int][]uint64, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		m[k] = r.U64s()
		if r.Err() != nil {
			return m
		}
	}
	return m
}

// upgradeTo raises node u's estimate toward target (capped at logN),
// deferring if the node is mid-phase.
func (p *CrowdedBin) upgradeTo(u mtm.NodeID, target int) {
	if target > p.logN {
		target = p.logN
	}
	if target <= p.est[u] {
		return
	}
	if p.activeInst[u] != 0 {
		if target > p.pending[u] {
			p.pending[u] = target
		}
		return
	}
	p.est[u] = target
}

// stashTag records a heard tag for a bin unless already known or stashed.
func (p *CrowdedBin) stashTag(u mtm.NodeID, key int, tag uint64) {
	for _, t := range p.tags[u][key] {
		if t == tag {
			return
		}
	}
	for _, t := range p.stash[u][key] {
		if t == tag {
			return
		}
	}
	p.stash[u][key] = append(p.stash[u][key], tag)
}

// mergeStash folds stashed tags into the bin's known-tag list (sorted,
// capped at γ·logN + 1 so crowding is still detectable) and performs the
// crowded-bin upgrade check.
func (p *CrowdedBin) mergeStash(u mtm.NodeID, key int) {
	pendingTags := p.stash[u][key]
	if len(pendingTags) == 0 {
		return
	}
	delete(p.stash[u], key)
	merged := append(p.tags[u][key], pendingTags...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	// Deduplicate (stashTag prevents most duplicates, but a tag can arrive
	// through both spelling and a push).
	out := merged[:0]
	for i, t := range merged {
		if i == 0 || merged[i-1] != t {
			out = append(out, t)
		}
	}
	if limit := p.blocks + 1; len(out) > limit {
		out = out[:limit]
	}
	p.tags[u][key] = out

	// Crowded-bin evidence: k̂ too small.
	if key>>32 == p.est[u] && len(out) >= p.blocks {
		p.upgradeTo(u, p.est[u]+1)
	}
}
