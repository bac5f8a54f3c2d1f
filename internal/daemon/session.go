package daemon

import (
	"sync"
	"sync/atomic"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/events"
	"mobilegossip/internal/wire"
)

// session is one managed simulation: the daemon-side wrapper around a
// *mobilegossip.Simulation that adds the state the service needs — a
// lock serializing all Simulation access, lock-free cached meters for
// state queries, the eviction bookkeeping, the job set for cancel, and
// the one bus subscription that feeds the daemon's collector and the
// session's recorder.
type session struct {
	id string

	// mu serializes every touch of the Simulation: stepping (scheduler
	// slices), checkpoint downloads, token queries, eviction and
	// revival. A Simulation is single-goroutine by contract; this lock
	// is that contract at daemon scale. Holders keep slices short so
	// concurrent requests interleave at round boundaries.
	mu  sync.Mutex
	sim *mobilegossip.Simulation // nil while evicted
	// gone marks a deleted session: jobs and revives fail fast.
	gone bool
	// failed records a model-contract violation: the session stays
	// queryable but cannot be stepped, checkpointed, or evicted.
	failed bool

	// Identity, fixed at create/resume time (the wire echo of the
	// normalized Config).
	algorithm string
	topology  string // the schedule's self-description, e.g. "waypoint(...)τ=1"
	n, k, tau int
	epsilon   float64
	seed      uint64
	// Profile is re-applied on revival: a wall-clock-only knob,
	// deliberately outside the checkpoint stream.
	profile bool

	// Cached state, stored at slice boundaries and read lock-free by the
	// state/list endpoints — a state query never waits on a stepping
	// session.
	round     atomic.Int64
	potential atomic.Int64
	done      atomic.Bool
	solved    atomic.Bool
	health    atomic.Pointer[string]
	evicted   atomic.Bool
	evictions atomic.Int64
	lastTouch atomic.Int64 // unix nanos of the last client touch or slice

	col *events.Collector // the daemon-wide aggregation observe feeds
	rec *recorder         // lossless event log; nil unless RecordEvents

	// jobs tracks this session's queued and executing run jobs so the
	// cancel endpoint can reach them.
	jmu  sync.Mutex
	jobs map[*runJob]struct{}

	// unsubscribe detaches observe from the live Simulation's bus; nil
	// while detached.
	unsubscribe func()
	// observe's gate, read and written under mu: every publish happens
	// on the goroutine that holds it.
	clientResumed                  bool // created from an uploaded checkpoint
	startSeen, endSeen, resumeSeen bool
}

func (s *session) touch() { s.lastTouch.Store(time.Now().UnixNano()) }

// attachLocked binds a live Simulation to the session and subscribes
// observe to its bus. Call with mu held.
func (s *session) attachLocked(sim *mobilegossip.Simulation) {
	s.sim = sim
	s.evicted.Store(false)
	s.unsubscribe = sim.Bus().SubscribeSync(events.Filter{}, s.observe)
}

// detachLocked unsubscribes observe from the Simulation's bus, so what
// the Simulation publishes next reaches no subscriber. Call with mu held.
func (s *session) detachLocked() {
	if s.unsubscribe != nil {
		s.unsubscribe()
		s.unsubscribe = nil
	}
}

// observe is the session's one bus handler. It passes each event to the
// daemon's collector and to the recorder, and drops only what a revival
// publishes again: a revived Simulation announces its start, its
// resume and, for a finished run, its end once more, and within one
// Simulation nothing else can. So every session_start and session_end
// after the first, and every checkpoint_resumed but the first of a
// session created from an uploaded checkpoint, go; the recorded stream
// and /metrics both count the one logical run, byte-identical to a
// never-evicted one.
func (s *session) observe(ev events.Event) {
	switch ev.Type {
	case events.TypeSessionStart:
		if s.startSeen {
			return
		}
		s.startSeen = true
	case events.TypeSessionEnd:
		if s.endSeen {
			return
		}
		s.endSeen = true
	case events.TypeCheckpointResumed:
		if s.resumeSeen || !s.clientResumed {
			return
		}
		s.resumeSeen = true
	}
	s.col.Observe(ev)
	if s.rec != nil {
		s.rec.observe(ev)
	}
}

// syncCachedLocked refreshes the lock-free mirror from the live
// Simulation; call with mu held and sim non-nil.
func (s *session) syncCachedLocked() {
	s.round.Store(int64(s.sim.Round()))
	s.potential.Store(int64(s.sim.Potential()))
	done := s.sim.Done()
	s.done.Store(done)
	if done {
		s.solved.Store(s.sim.Result().Solved)
	}
	h := s.sim.Health().String()
	s.health.Store(&h)
}

// addJob / removeJob maintain the cancelable job set.
func (s *session) addJob(j *runJob) {
	s.jmu.Lock()
	if s.jobs == nil {
		s.jobs = make(map[*runJob]struct{})
	}
	s.jobs[j] = struct{}{}
	s.jmu.Unlock()
}

func (s *session) removeJob(j *runJob) {
	s.jmu.Lock()
	delete(s.jobs, j)
	s.jmu.Unlock()
}

// cancelJobs cancels every queued and executing job (the cancel
// endpoint). Jobs observe their context at the next round boundary.
func (s *session) cancelJobs() int {
	s.jmu.Lock()
	n := len(s.jobs)
	for j := range s.jobs {
		j.cancel()
	}
	s.jmu.Unlock()
	return n
}

func (s *session) pendingJobs() int {
	s.jmu.Lock()
	n := len(s.jobs)
	s.jmu.Unlock()
	return n
}

// info renders the wire SessionInfo from the lock-free cache; callable
// at any time, against running and evicted sessions alike.
func (s *session) info() client.SessionInfo {
	status := "idle"
	switch {
	case s.evicted.Load():
		status = "evicted"
	case !s.done.Load() && s.pendingJobs() > 0:
		// A done session never steps again, so queued jobs on it (the one
		// delivering this result included) don't make it "running".
		status = "running"
	}
	health := "unknown"
	if h := s.health.Load(); h != nil {
		health = *h
	}
	var recorded int64
	if s.rec != nil {
		recorded = s.rec.lines.Load()
	}
	return client.SessionInfo{
		ID:             s.id,
		Status:         status,
		Round:          int(s.round.Load()),
		Potential:      int(s.potential.Load()),
		Done:           s.done.Load(),
		Solved:         s.solved.Load(),
		N:              s.n,
		K:              s.k,
		Algorithm:      s.algorithm,
		Topology:       s.topology,
		Tau:            s.tau,
		Epsilon:        s.epsilon,
		Seed:           s.seed,
		Health:         health,
		EventsRecorded: recorded,
		Evictions:      s.evictions.Load(),
	}
}

// runResultLocked renders the wire RunResult from the live Simulation;
// call with mu held and sim non-nil.
func (s *session) runResultLocked(canceled bool) client.RunResult {
	res := wire.ResultToWire(s.sim.Result(), s.info())
	res.Canceled = canceled
	return res
}
