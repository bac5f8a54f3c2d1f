package mtm

// The round's phases, each written once over a range, and the one fan-out
// that runs them. A round is one range — the whole node set, run inline on
// the caller — or several run in parallel with results byte-identical to
// the one-range round.
//
// The node range [0, n) is partitioned each round into Workers contiguous
// shards whose boundaries balance estimated round cost (degree + fixed
// per-node work; graph.BalancedCutsInto). Every phase runs over per-shard
// scratch, with a full barrier between phases so each phase reads a
// complete snapshot of the previous one:
//
//	tag      — u-shards write tags[lo:hi]; lowest-u tag-width violation wins
//	decide   — u-shards read the full tag array, write acts[lo:hi],
//	           drawing only from the rngs of their own nodes
//	validate — u-shards validate proposals into targets[lo:hi]
//	count    — v-shards count arrivals into their own inCnt range; a tiny
//	           sequential pass turns per-shard totals into inbox base
//	           offsets (the deterministic reduction)
//	accept   — v-shards fill their inbox region in ascending proposer
//	           order and draw each listener's uniform choice from the
//	           listener's own stream; per-shard pair lists are read in
//	           shard order, which is ascending responder order
//	exchange — accepted connections are vertex-disjoint (a matching), so
//	           contiguous chunks of the connection list are safe to run in
//	           parallel under the Protocol locality contract
//
// The engine's own determinism therefore needs no atomics and no locks:
// every array cell is written by exactly one shard, every RNG stream is
// advanced by exactly the same calls in the same order at any shard count,
// and the only cross-shard reductions (proposal totals, inbox bases, the
// walk over the pair lists, the tag error) run sequentially in shard order
// in Step. The one guarded thing a phase's shards share lives in the
// protocols, not here: core's advertisement planes, a per-round cache that
// the first Tag call of a round rebuilds behind an atomic stamp and a mutex
// while the other shards wait. Its contents are a pure function of (shared
// string, round), so which shard fills it cannot reach a result. See
// DESIGN.md §11.

import (
	"fmt"
	"time"

	"mobilegossip/internal/graph"
)

// shardNodeWeight is the fixed per-node phase cost relative to one adjacency
// entry used when balancing shard boundaries: every node is tagged, decided
// and delivered once regardless of degree, so pure vertex-count balance
// would overload shards holding the high-degree range.
const shardNodeWeight = 8

// shardMinConns is the connection count below which the exchange phase runs
// as one range — goroutine fan-out costs more than the handful of calls.
const shardMinConns = 64

// phase names one round phase for runPhase. Phases are dispatched by id
// rather than passed as func values: a closure handed to a function that
// go-launches it escapes, which would cost an allocation per phase per
// round even on the inline one-range path.
type phase uint8

const (
	phaseTag      phase = iota // node range
	phaseDecide                // node range
	phaseValidate              // node range (proposers)
	phaseCount                 // node range (responders)
	phaseAccept                // node range (responders)
	phaseExchange              // connection-index range
)

// shard is the scratch one range of a phase owns: written by exactly one
// goroutine per phase, read by Step's reductions after the barrier.
type shard struct {
	view     []Neighbor // scan view, reused across nodes and rounds
	pairs    [][2]int32 // accepted (proposer, responder) pairs, ascending responder
	props    int        // proposals sent from this range
	arrivals int32      // valid proposals aimed into this range
	base     int32      // inbox offset of this range's first node
	err      error      // first tag-width violation in this range
	ns       int64      // profiling: compute time over the round's launched phases
}

// roundCuts returns this round's shard boundaries: one range [0, n) at
// Workers ≤ 1. The boundaries are recomputed from the round's graph
// (dynamic schedules change degrees) into a reusable buffer.
func (e *Engine) roundCuts(g *graph.Graph, n int) []int32 {
	if e.testCuts != nil {
		return e.testCuts
	}
	e.cuts = g.BalancedCutsInto(min(e.workers, n), shardNodeWeight, e.cuts)
	return e.cuts
}

// exchangeCuts partitions the m accepted connections into at most w
// contiguous chunks. The connections form a matching, so any partition is
// endpoint-disjoint; chunk boundaries need not align with node shards.
func (e *Engine) exchangeCuts(m, w int) []int32 {
	cuts := append(e.exCuts[:0], 0)
	if w > 1 && m >= shardMinConns {
		chunk := (m + w - 1) / w
		for lo := chunk; lo < m; lo += chunk {
			cuts = append(cuts, int32(lo))
		}
	}
	e.exCuts = append(cuts, int32(m))
	return e.exCuts
}

// ensureShards sizes the per-range scratch for w ranges.
func (e *Engine) ensureShards(w int) {
	for len(e.shards) < w {
		e.shards = append(e.shards, shard{
			view:  make([]Neighbor, 0, 64),
			pairs: make([][2]int32, 0, 16),
		})
	}
}

// runPhase runs phase ph over every non-empty range [cuts[s], cuts[s+1])
// and returns when all are done (the phase barrier). A single range runs
// inline on the caller: no goroutine, no clock read. Several run
// concurrently, the last on the calling goroutine; with a recorder attached
// each range's compute time accumulates into its shard's ns and the phase's
// wall time, once per launched range, into profParNs.
func (e *Engine) runPhase(ph phase, cuts []int32) {
	last, live := -1, 0
	for s := 0; s+1 < len(cuts); s++ {
		if cuts[s] < cuts[s+1] {
			last = s
			live++
		}
	}
	if live == 0 {
		return
	}
	if live == 1 {
		e.phaseRange(ph, last, int(cuts[last]), int(cuts[last+1]))
		return
	}
	var t0 time.Time
	if e.prof != nil {
		t0 = time.Now()
	}
	e.wg.Add(live)
	for s := 0; s < last; s++ {
		if cuts[s] < cuts[s+1] {
			go e.runRange(ph, s, int(cuts[s]), int(cuts[s+1]))
		}
	}
	e.runRange(ph, last, int(cuts[last]), int(cuts[last+1]))
	e.wg.Wait()
	if e.prof != nil {
		e.profParNs += int64(live) * time.Since(t0).Nanoseconds()
	}
}

// runRange is one launched range of a parallel phase.
func (e *Engine) runRange(ph phase, s, lo, hi int) {
	defer e.wg.Done()
	if e.prof == nil {
		e.phaseRange(ph, s, lo, hi)
		return
	}
	t := time.Now()
	e.phaseRange(ph, s, lo, hi)
	e.shards[s].ns += time.Since(t).Nanoseconds()
}

// phaseRange is the one implementation of every phase, over range s =
// [lo, hi). Each case hoists the arrays it walks into locals: indexing
// them through the receiver in these loops measurably slows rounds that
// are all fixed cost.
func (e *Engine) phaseRange(ph phase, s, lo, hi int) {
	r := e.round + 1
	sh := &e.shards[s]
	switch ph {
	case phaseTag:
		// Each range stops at its first violation and the lowest range's
		// wins, which — ranges being ascending — is the lowest-u violation.
		tags, proto, mask := e.tags, e.proto, e.tagMask
		for u := lo; u < hi; u++ {
			tags[u] = proto.Tag(r, u)
			if tags[u]&^mask != 0 {
				sh.err = fmt.Errorf("%w: node %d round %d tag %#x with b=%d",
					ErrTagTooWide, u, r, tags[u], proto.TagBits())
				return
			}
		}

	case phaseDecide:
		// Reads the complete tag array written before the barrier; draws
		// only from this range's own streams.
		g, tags, acts, rngs, proto := e.g, e.tags, e.acts, e.rngs, e.proto
		view := sh.view
		for u := lo; u < hi; u++ {
			view = view[:0]
			for _, v := range g.Adjacency(u) {
				view = append(view, Neighbor{ID: int(v), Tag: tags[v]})
			}
			acts[u] = proto.Decide(r, u, view, rngs[u])
		}
		sh.view = view[:0] // keep any growth for the next round

	case phaseValidate:
		// A proposer cannot receive, and proposals to proposers are lost
		// (the target is busy sending).
		g, acts, targets := e.g, e.acts, e.targets
		n := len(targets)
		props := 0
		for u := lo; u < hi; u++ {
			targets[u] = -1
			if !acts[u].Propose {
				continue
			}
			props++
			t := acts[u].Target
			if t < 0 || t >= n || t == u || !g.HasEdge(u, t) {
				continue // malformed proposal is simply lost
			}
			if acts[t].Propose {
				continue // target is itself proposing; cannot receive
			}
			targets[u] = int32(t)
		}
		sh.props = props

	case phaseCount:
		// Scans the full target array and counts only arrivals aimed at
		// this range — O(n) per range, but cache-friendly and
		// write-disjoint.
		targets, inCnt := e.targets, e.inCnt
		for v := lo; v < hi; v++ {
			inCnt[v] = 0
		}
		total := int32(0)
		lo32, hi32 := int32(lo), int32(hi)
		for _, t := range targets {
			if t >= lo32 && t < hi32 {
				inCnt[t]++
				total++
			}
		}
		sh.arrivals = total

	case phaseAccept:
		// Offsets follow from the range's base and the counts; inCnt is
		// then reused as the fill cursor, so proposers group by target in
		// ascending proposer order. The accept loop reads
		// inbox[inOff[v] : inOff[v]+inCnt[v]] rather than up to inOff[v+1]:
		// for a range's last node that cell belongs to the next range.
		targets, inCnt, inOff, inbox, rngs := e.targets, e.inCnt, e.inOff, e.inbox, e.rngs
		off := sh.base
		for v := lo; v < hi; v++ {
			inOff[v] = off
			off += inCnt[v]
			inCnt[v] = 0
		}
		lo32, hi32 := int32(lo), int32(hi)
		for u, t := range targets {
			if t >= lo32 && t < hi32 {
				inbox[inOff[t]+inCnt[t]] = int32(u)
				inCnt[t]++
			}
		}
		pairs := sh.pairs[:0]
		for v := lo; v < hi; v++ {
			in := inbox[inOff[v] : inOff[v]+inCnt[v]]
			if len(in) == 0 {
				continue
			}
			// Uniform acceptance from the listener's own stream.
			u := in[rngs[v].Intn(len(in))]
			pairs = append(pairs, [2]int32{u, int32(v)})
		}
		sh.pairs = pairs

	case phaseExchange:
		conns, proto := e.conns, e.proto
		for i := lo; i < hi; i++ {
			proto.Exchange(r, &conns[i])
		}
	}
}
