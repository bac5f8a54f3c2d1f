package daemon

import (
	"context"
	"sync"
	"sync/atomic"
)

// targetUnset marks a job whose absolute target round has not been
// resolved yet (resolved against the session's live round at the job's
// first slice, so concurrent jobs compose sanely).
const targetUnset = -2

// targetDone means "run to completion" (objective or MaxRounds).
const targetDone = -1

// runJob is one client run request traveling through the scheduler:
// advance the session by rounds (<= 0: to completion), in slices.
type runJob struct {
	s      *session
	rounds int // the request's relative round count
	target int // absolute target round; targetUnset until first slice

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	res    any // client.RunResult on success
	err    error
}

func (j *runJob) finish(res any, err error) {
	j.s.removeJob(j)
	j.res, j.err = res, err
	close(j.done)
}

// scheduler is the daemon's bounded worker pool: run jobs queue FIFO,
// each worker executes one slice (at most sliceRounds rounds) of the
// front job, and unfinished jobs requeue at the tail. The slice-and-
// requeue discipline is what makes hundreds of concurrent sessions
// progress fairly: a long run cannot monopolize a worker, it just keeps
// taking turns. The pool is Config.Workers wide (GOMAXPROCS by default).
type scheduler struct {
	exec func(*runJob) bool // one slice; true = job finished (do not requeue)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*runJob
	closed bool
	wg     sync.WaitGroup

	depth  atomic.Int64 // queued jobs, for the gossipd_queue_depth gauge
	slices atomic.Int64 // executed slices, for gossipd_slices_total
}

func newScheduler(workers int, exec func(*runJob) bool) *scheduler {
	sc := &scheduler{exec: exec}
	sc.cond = sync.NewCond(&sc.mu)
	for i := 0; i < workers; i++ {
		sc.wg.Add(1)
		go sc.worker()
	}
	return sc
}

// submit enqueues j at the tail. After close it fails the job instead.
func (sc *scheduler) submit(j *runJob) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		j.finish(nil, errShuttingDown)
		return
	}
	sc.queue = append(sc.queue, j)
	sc.depth.Store(int64(len(sc.queue)))
	sc.cond.Signal()
	sc.mu.Unlock()
}

func (sc *scheduler) worker() {
	defer sc.wg.Done()
	for {
		sc.mu.Lock()
		for len(sc.queue) == 0 && !sc.closed {
			sc.cond.Wait()
		}
		if sc.closed {
			sc.mu.Unlock()
			return
		}
		j := sc.queue[0]
		sc.queue = sc.queue[1:]
		sc.depth.Store(int64(len(sc.queue)))
		sc.mu.Unlock()

		sc.slices.Add(1)
		if !sc.exec(j) {
			sc.submit(j)
		}
	}
}

// close stops the workers and fails every still-queued job. Jobs
// mid-slice finish their slice first (wg.Wait).
func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	pending := sc.queue
	sc.queue = nil
	sc.depth.Store(0)
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.wg.Wait()
	for _, j := range pending {
		j.finish(nil, errShuttingDown)
	}
}
