// Package trace records mobile-telephone-model executions as a stream of
// events for debugging, visualization and post-hoc analysis. A Recorder
// wraps any mtm.Protocol; the wrapped protocol behaves identically while
// every proposal and accepted connection is written as one JSON line.
//
// Event volume is deliberately bounded: per-node tags are not recorded
// (they are Θ(n) per round and recomputable from the seed); proposals and
// connections are Θ(matching size) per round.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// Event is one recorded occurrence. Kind is "propose" (Node proposed to
// Peer) or "connect" (Node initiated an accepted connection with Peer;
// Bits and Tokens are the communication metered over it).
type Event struct {
	Round  int    `json:"round"`
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Peer   int    `json:"peer"`
	Tag    uint64 `json:"tag,omitempty"`
	Bits   int    `json:"bits,omitempty"`
	Tokens int    `json:"tokens,omitempty"`
}

// Recorder sinks events to an io.Writer as JSON lines. It is safe under a
// sharded engine (mtm.Config.Workers ≥ 2), where Decide and Exchange run
// from multiple goroutines.
type Recorder struct {
	mu     sync.Mutex
	enc    *json.Encoder
	err    error
	events int64
}

// NewRecorder returns a Recorder writing JSONL to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{enc: json.NewEncoder(w)}
}

// Events returns the number of events recorded so far.
func (r *Recorder) Events() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// Err returns the first write error encountered, if any. Recording
// continues to be attempted after an error; callers check Err once at the
// end of a run.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events++
	if err := r.enc.Encode(e); err != nil && r.err == nil {
		r.err = fmt.Errorf("trace: %w", err)
	}
}

// Wrap returns a Protocol that behaves exactly like p while recording its
// proposals and connections to rec.
func Wrap(p mtm.Protocol, rec *Recorder) mtm.Protocol {
	return &traced{inner: p, rec: rec}
}

type traced struct {
	inner mtm.Protocol
	rec   *Recorder
}

var _ mtm.Protocol = (*traced)(nil)

func (t *traced) TagBits() int { return t.inner.TagBits() }

func (t *traced) Tag(r int, u mtm.NodeID) uint64 { return t.inner.Tag(r, u) }

func (t *traced) Decide(r int, u mtm.NodeID, view []mtm.Neighbor, rng *prand.RNG) mtm.Action {
	a := t.inner.Decide(r, u, view, rng)
	if a.Propose {
		t.rec.record(Event{Round: r, Kind: "propose", Node: u, Peer: a.Target})
	}
	return a
}

func (t *traced) Exchange(r int, c *mtm.Conn) {
	t.inner.Exchange(r, c)
	t.rec.record(Event{
		Round: r, Kind: "connect",
		Node: c.Initiator, Peer: c.Responder,
		Bits: c.BitsUsed(), Tokens: c.TokensUsed(),
	})
}

func (t *traced) Done() bool { return t.inner.Done() }
