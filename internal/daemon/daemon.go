package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/events"
	"mobilegossip/internal/wire"
)

// Config tunes one daemon instance.
type Config struct {
	// StateDir holds eviction checkpoints (<id>.ckpt) and recorded event
	// logs (<id>.events.jsonl). Created if missing. Required.
	StateDir string
	// Workers bounds the scheduler pool; 0 (or negative) means
	// GOMAXPROCS.
	Workers int
	// MaxLive caps the memory-resident session count: crossing it evicts
	// least-recently-touched idle sessions to disk checkpoints. 0 means
	// no cap (only IdleTimeout evicts). The cap is soft — sessions that
	// are stepping or have queued jobs are never evicted, so a burst of
	// simultaneously-running sessions can exceed it until they go idle.
	MaxLive int
	// IdleTimeout evicts sessions untouched for this long. 0 disables
	// idle eviction.
	IdleTimeout time.Duration
	// SliceRounds is the scheduler's fairness quantum: the most rounds
	// one job executes before requeueing. 0 means the default (64).
	SliceRounds int
}

const defaultSliceRounds = 64

// Daemon-level errors, mapped to HTTP statuses by the handlers.
var (
	errNoSession    = errors.New("no such session")
	errShuttingDown = errors.New("daemon is shutting down")
	errFailed       = errors.New("session failed a model contract and can only be inspected or deleted")
	errNotRecorded  = errors.New("session does not record events (create with record_events)")
)

// Daemon multiplexes simulation sessions over a bounded scheduler with
// checkpoint-backed eviction. Construct with New, serve Handler, Close
// on shutdown.
type Daemon struct {
	cfg   Config
	sched *scheduler
	col   *events.Collector // daemon-wide aggregation of every session bus

	mu       sync.RWMutex
	sessions map[string]*session
	seq      atomic.Int64

	// Scheduler/eviction meters for /metrics.
	created     atomic.Int64
	deleted     atomic.Int64
	live        atomic.Int64 // resident (non-evicted) sessions
	evictedNow  atomic.Int64 // currently evicted sessions
	evictsTotal atomic.Int64
	revivals    atomic.Int64
	evictErrors atomic.Int64

	stop    chan struct{}
	janitor sync.WaitGroup
	closed  atomic.Bool
}

// New validates cfg, creates the state directory, and starts the
// scheduler workers and the eviction janitor.
func New(cfg Config) (*Daemon, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("daemon: Config.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: state dir: %w", err)
	}
	if cfg.SliceRounds <= 0 {
		cfg.SliceRounds = defaultSliceRounds
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	d := &Daemon{
		cfg:      cfg,
		col:      events.NewCollector(),
		sessions: make(map[string]*session),
		stop:     make(chan struct{}),
	}
	d.sched = newScheduler(cfg.Workers, d.execSlice)
	if cfg.IdleTimeout > 0 {
		d.janitor.Add(1)
		go d.janitorLoop()
	}
	return d, nil
}

// Workers returns the scheduler pool size the daemon resolved.
func (d *Daemon) Workers() int {
	return d.cfg.Workers
}

// Close stops the janitor and the scheduler; queued jobs fail with a
// shutting-down error. In-flight slices finish first, so no session is
// left mid-round.
func (d *Daemon) Close() {
	if d.closed.Swap(true) {
		return
	}
	close(d.stop)
	d.janitor.Wait()
	d.sched.close()
}

func (d *Daemon) ckptPath(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".ckpt")
}

func (d *Daemon) eventsPath(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".events.jsonl")
}

// get looks a session up without touching it.
func (d *Daemon) get(id string) (*session, error) {
	d.mu.RLock()
	s := d.sessions[id]
	d.mu.RUnlock()
	if s == nil {
		return nil, errNoSession
	}
	return s, nil
}

// Create builds a session from the wire request and registers it.
func (d *Daemon) Create(req client.CreateRequest) (client.SessionInfo, error) {
	cfg, err := wire.ConfigFromWire(req)
	if err != nil {
		return client.SessionInfo{}, err
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		return client.SessionInfo{}, err
	}
	return d.register(sim, req.RecordEvents, false)
}

// ResumeUpload builds a session from an uploaded checkpoint stream. The
// client-driven resume is part of the logical run: its session_start and
// checkpoint_resumed events are recorded, exactly as a local
// `gossipsim -resume -events` records them.
func (d *Daemon) ResumeUpload(r io.Reader, recordEvents bool) (client.SessionInfo, error) {
	sim, err := mobilegossip.Resume(r)
	if err != nil {
		return client.SessionInfo{}, err
	}
	return d.register(sim, recordEvents, true)
}

// register wraps a live Simulation into a managed session.
func (d *Daemon) register(sim *mobilegossip.Simulation, recordEvents, resumed bool) (client.SessionInfo, error) {
	if d.closed.Load() {
		return client.SessionInfo{}, errShuttingDown
	}
	cfg := sim.Config()
	id := fmt.Sprintf("s%06d", d.seq.Add(1))
	s := &session{
		id:        id,
		algorithm: cfg.Algorithm.String(),
		topology:  sim.Result().Topology,
		n:         cfg.N,
		k:         sim.K(),
		tau:       cfg.Tau,
		epsilon:   cfg.Epsilon,
		seed:      cfg.Seed,
		profile:   cfg.Profile,
		col:       d.col,

		clientResumed: resumed,
	}
	if recordEvents {
		rec, err := newRecorder(d.eventsPath(id))
		if err != nil {
			return client.SessionInfo{}, err
		}
		s.rec = rec
	}
	s.mu.Lock()
	s.attachLocked(sim)
	s.syncCachedLocked()
	s.touch()
	s.mu.Unlock()

	d.mu.Lock()
	d.sessions[id] = s
	d.mu.Unlock()
	d.created.Add(1)
	d.live.Add(1)
	d.enforceCap(s)
	return s.info(), nil
}

// ensureLiveLocked revives an evicted session from its disk checkpoint.
// Call with s.mu held. Revival is transparent: the wall-clock-only
// Profile knob is re-applied, session.observe drops the revived
// simulation's re-announcements, and execution continues
// byte-identically to a never-evicted run.
func (d *Daemon) ensureLiveLocked(s *session) error {
	if s.gone {
		return errNoSession
	}
	if s.sim != nil {
		return nil
	}
	sim, err := mobilegossip.ResumeFile(d.ckptPath(s.id))
	if err != nil {
		return fmt.Errorf("reviving session %s: %w", s.id, err)
	}
	if s.profile {
		sim.EnableProfiling()
	}
	if s.rec != nil {
		if err := s.rec.reopen(); err != nil {
			return fmt.Errorf("reviving session %s event log: %w", s.id, err)
		}
	}
	s.attachLocked(sim)
	d.live.Add(1)
	d.evictedNow.Add(-1)
	d.revivals.Add(1)
	s.touch()
	d.enforceCap(s)
	return nil
}

// tryEvict checkpoints an idle session to disk and drops its Simulation.
// Best-effort and strictly non-blocking: a session that is stepping
// (lock held), queued for work, failed, or already evicted is skipped.
// The checkpoint write is atomic (CheckpointFile), so a session is only
// dropped from memory after its state is safely on disk — eviction can
// never lose a session. The session is detached while it writes, so the
// eviction snapshot's checkpoint_written reaches no subscriber.
func (d *Daemon) tryEvict(s *session) bool {
	if !s.mu.TryLock() {
		return false
	}
	defer s.mu.Unlock()
	if s.gone || s.failed || s.sim == nil || s.pendingJobs() > 0 {
		return false
	}
	s.detachLocked()
	if err := s.sim.CheckpointFile(d.ckptPath(s.id)); err != nil {
		// Disk trouble: keep the session resident rather than lose it.
		s.attachLocked(s.sim)
		d.evictErrors.Add(1)
		return false
	}
	if s.rec != nil {
		s.rec.close()
	}
	s.sim = nil
	s.evicted.Store(true)
	s.evictions.Add(1)
	d.live.Add(-1)
	d.evictedNow.Add(1)
	d.evictsTotal.Add(1)
	return true
}

// enforceCap evicts least-recently-touched idle sessions while the
// resident count exceeds MaxLive. keep (the session being created or
// revived) is never a candidate. Non-blocking: only TryLock-able idle
// sessions are evicted, so the cap is soft under an all-busy burst.
func (d *Daemon) enforceCap(keep *session) {
	if d.cfg.MaxLive <= 0 || d.live.Load() <= int64(d.cfg.MaxLive) {
		return
	}
	d.mu.RLock()
	candidates := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		if s != keep && !s.evicted.Load() {
			candidates = append(candidates, s)
		}
	}
	d.mu.RUnlock()
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].lastTouch.Load() < candidates[j].lastTouch.Load()
	})
	for _, s := range candidates {
		if d.live.Load() <= int64(d.cfg.MaxLive) {
			return
		}
		d.tryEvict(s)
	}
}

// janitorLoop periodically evicts sessions idle longer than IdleTimeout.
func (d *Daemon) janitorLoop() {
	defer d.janitor.Done()
	tick := d.cfg.IdleTimeout / 2
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-d.cfg.IdleTimeout).UnixNano()
			d.mu.RLock()
			idle := make([]*session, 0, 8)
			for _, s := range d.sessions {
				if !s.evicted.Load() && s.lastTouch.Load() < cutoff {
					idle = append(idle, s)
				}
			}
			d.mu.RUnlock()
			for _, s := range idle {
				d.tryEvict(s)
			}
		}
	}
}

// Run submits a run job (advance by rounds; <= 0 to completion) and
// waits for it. Canceling ctx cancels the job at the next round
// boundary; the session stays usable.
func (d *Daemon) Run(ctx context.Context, id string, rounds int) (client.RunResult, error) {
	s, err := d.get(id)
	if err != nil {
		return client.RunResult{}, err
	}
	s.touch()
	jctx, cancel := context.WithCancel(ctx)
	j := &runJob{s: s, rounds: rounds, target: targetUnset, ctx: jctx, cancel: cancel, done: make(chan struct{})}
	s.addJob(j)
	d.sched.submit(j)
	<-j.done
	cancel()
	if j.err != nil {
		return client.RunResult{}, j.err
	}
	return j.res.(client.RunResult), nil
}

// execSlice is the scheduler's work function: one fairness quantum of
// one job. Returns true when the job is finished (done, canceled, or
// failed) and must not requeue.
func (d *Daemon) execSlice(j *runJob) bool {
	s := j.s
	s.mu.Lock()
	if err := d.ensureLiveLocked(s); err != nil {
		s.mu.Unlock()
		j.finish(nil, err)
		return true
	}
	if s.failed {
		s.mu.Unlock()
		j.finish(nil, errFailed)
		return true
	}
	if j.target == targetUnset {
		if j.rounds <= 0 {
			j.target = targetDone
		} else {
			j.target = s.sim.Round() + j.rounds
		}
	}
	var stepErr error
	canceled := j.ctx.Err() != nil
	for r := 0; r < d.cfg.SliceRounds && !canceled; r++ {
		if s.sim.Done() || (j.target >= 0 && s.sim.Round() >= j.target) {
			break
		}
		if _, err := s.sim.Step(); err != nil {
			stepErr = err
			break
		}
		canceled = j.ctx.Err() != nil
	}
	if stepErr == nil && s.sim.Done() {
		// A job ending on a finished run announces the end, as
		// Simulation.Run does — also when no round was left to step (a
		// resumed or revived finished run). Step on a finished run
		// publishes session_end once per Simulation; session.observe
		// passes only the session's first.
		if _, err := s.sim.Step(); !errors.Is(err, mobilegossip.ErrSimulationDone) {
			stepErr = err
		}
	}
	finished := s.sim.Done() || (j.target >= 0 && s.sim.Round() >= j.target)
	if canceled && !finished && stepErr == nil {
		// Parity with Simulation.Run's cancellation contract: announce
		// the cancellation on the bus; the session stays resumable.
		s.sim.Bus().Publish(events.Event{
			Type: events.TypeSessionCancel, Round: s.sim.Round(), Potential: s.sim.Potential(),
		})
	}
	s.syncCachedLocked()
	s.touch()
	var res client.RunResult
	if stepErr == nil && (finished || canceled) {
		res = s.runResultLocked(canceled && !finished)
	}
	if stepErr != nil {
		s.failed = true
	}
	s.mu.Unlock()

	switch {
	case stepErr != nil:
		j.finish(nil, stepErr)
		return true
	case finished || canceled:
		j.finish(res, nil)
		return true
	default:
		return false
	}
}

// Checkpoint streams the session's checkpoint to w, reviving it first if
// evicted. The write happens under the session lock, at a round
// boundary, so the stream is byte-identical to a local Checkpoint of the
// same logical run at the same round.
func (d *Daemon) Checkpoint(id string, w io.Writer) error {
	s, err := d.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := d.ensureLiveLocked(s); err != nil {
		return err
	}
	s.touch()
	return s.sim.Checkpoint(w)
}

// Rebind swaps the session's topology schedule and stability factor at
// its current round boundary — the service face of Simulation.Rebind,
// driving phased scenario timelines remotely. The swap happens under the
// session lock, so it lands exactly between scheduler slices; eviction
// checkpoints written afterwards carry the new schedule (Rebind updates
// the session config), which is what keeps evict/revive transparent
// across a phase boundary.
func (d *Daemon) Rebind(id string, req client.RebindRequest) (client.SessionInfo, error) {
	s, err := d.get(id)
	if err != nil {
		return client.SessionInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := d.ensureLiveLocked(s); err != nil {
		return client.SessionInfo{}, err
	}
	topo, err := wire.TopologyFromWire(req.Topology)
	if err != nil {
		return client.SessionInfo{}, err
	}
	if err := s.sim.Rebind(topo, req.Tau); err != nil {
		return client.SessionInfo{}, err
	}
	s.topology = s.sim.Result().Topology
	s.tau = req.Tau
	s.syncCachedLocked()
	s.touch()
	return s.info(), nil
}

// Cancel cancels the session's queued and in-flight run jobs.
func (d *Daemon) Cancel(id string) error {
	s, err := d.get(id)
	if err != nil {
		return err
	}
	s.touch()
	s.cancelJobs()
	return nil
}

// Delete removes the session and its on-disk state. Queued jobs fail;
// an executing slice finishes first.
func (d *Daemon) Delete(id string) error {
	d.mu.Lock()
	s := d.sessions[id]
	if s == nil {
		d.mu.Unlock()
		return errNoSession
	}
	delete(d.sessions, id)
	d.mu.Unlock()

	s.cancelJobs()
	s.mu.Lock()
	s.gone = true
	wasLive := s.sim != nil
	s.detachLocked()
	s.sim = nil
	if s.rec != nil {
		s.rec.retire()
	}
	s.mu.Unlock()
	if wasLive {
		d.live.Add(-1)
	} else {
		d.evictedNow.Add(-1)
	}
	d.deleted.Add(1)
	os.Remove(d.ckptPath(id))
	if s.rec != nil {
		os.Remove(d.eventsPath(id))
	}
	return nil
}

// List returns every session's info, sorted by id.
func (d *Daemon) List() []client.SessionInfo {
	d.mu.RLock()
	out := make([]client.SessionInfo, 0, len(d.sessions))
	for _, s := range d.sessions {
		out = append(out, s.info())
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// State returns one session's info without touching (or reviving) it.
func (d *Daemon) State(id string) (client.SessionInfo, error) {
	s, err := d.get(id)
	if err != nil {
		return client.SessionInfo{}, err
	}
	return s.info(), nil
}

// WriteMetrics renders the daemon-wide exposition: the scheduler and
// eviction gauges, then the aggregated per-session collector.
func (d *Daemon) WriteMetrics(w io.Writer) error {
	d.mu.RLock()
	total := len(d.sessions)
	d.mu.RUnlock()
	rows := []struct {
		name, kind, help string
		value            int64
	}{
		{"gossipd_sessions", "gauge", "Sessions the daemon currently holds, resident or evicted.", int64(total)},
		{"gossipd_sessions_live", "gauge", "Memory-resident sessions.", d.live.Load()},
		{"gossipd_sessions_evicted", "gauge", "Sessions currently evicted to disk checkpoints.", d.evictedNow.Load()},
		{"gossipd_sessions_created_total", "counter", "Sessions created over the daemon's lifetime.", d.created.Load()},
		{"gossipd_sessions_deleted_total", "counter", "Sessions deleted.", d.deleted.Load()},
		{"gossipd_evictions_total", "counter", "Idle sessions checkpointed to disk and dropped from memory.", d.evictsTotal.Load()},
		{"gossipd_revivals_total", "counter", "Evicted sessions transparently revived on touch.", d.revivals.Load()},
		{"gossipd_eviction_errors_total", "counter", "Eviction attempts abandoned on checkpoint write errors (session kept resident).", d.evictErrors.Load()},
		{"gossipd_queue_depth", "gauge", "Run jobs queued on the scheduler.", d.sched.depth.Load()},
		{"gossipd_slices_total", "counter", "Scheduler fairness slices executed.", d.sched.slices.Load()},
		{"gossipd_workers", "gauge", "Scheduler worker pool size.", int64(d.Workers())},
	}
	for _, m := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.kind, m.name, m.value); err != nil {
			return err
		}
	}
	_, err := d.col.WriteTo(w)
	return err
}
