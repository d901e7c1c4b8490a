package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"rvnegtest/internal/obs"
)

// ErrJobTerminal reports a lifecycle operation on a job that already
// reached a terminal state.
var ErrJobTerminal = errors.New("campaign: job already terminal")

// ErrSchedulerClosed reports an operation on a closed scheduler.
var ErrSchedulerClosed = errors.New("campaign: scheduler closed")

// SchedulerConfig shapes a scheduler around a job store.
type SchedulerConfig struct {
	// Slots is the number of jobs running concurrently (each job may
	// itself use multiple engine workers); values below 1 mean 1.
	Slots int
	// Obs, when non-nil, receives the scheduler's counters and every
	// job's engine telemetry, so the daemon's /metrics sees running
	// jobs. Values sum over every job the scheduler has run.
	Obs *obs.Registry
	// Events, when non-nil, receives job lifecycle events and every
	// engine event, each stamped with its job ID.
	Events *obs.EventLog
}

// Scheduler runs jobs from a Store across a local worker pool. It owns
// the store after Open: all mutations flow through the scheduler's
// mutex, every state change is persisted before it is visible through
// the API, and jobs interrupted by daemon shutdown (graceful or kill
// -9) are recovered into the queue on the next Open — resuming from
// their engine checkpoints, which is what makes a daemon-executed job
// byte-identical to an uninterrupted one.
type Scheduler struct {
	store  *Store
	slots  int
	obs    *obs.Registry
	events *obs.EventLog

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	order   []string // submission order
	queue   []string // FIFO of queued job IDs
	running map[string]*slotCtl
	closed  bool

	cSubmitted, cResumed, cDone, cDegraded, cFailed, cCanceled *obs.Counter
	gQueued, gRunning                                          *obs.Gauge
}

// slotCtl controls one running job: its cancellation and whether the
// cancellation was an operator cancel (terminal) rather than a daemon
// shutdown (suspend).
type slotCtl struct {
	cancel   context.CancelFunc
	canceled bool
}

// Open builds a scheduler over the store and recovers persisted jobs:
// terminal jobs are indexed, queued jobs re-enter the queue, and jobs a
// previous daemon left mid-flight (running or checkpointing — e.g.
// after kill -9) are walked back to queued so they resume from their
// checkpoints. Call Start to begin executing.
func Open(store *Store, cfg SchedulerConfig) (*Scheduler, error) {
	slots := cfg.Slots
	if slots < 1 {
		slots = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		store:   store,
		slots:   slots,
		obs:     cfg.Obs,
		events:  cfg.Events,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    map[string]*Job{},
		running: map[string]*slotCtl{},

		cSubmitted: cfg.Obs.Counter("rvnegtestd_jobs_submitted_total"),
		cResumed:   cfg.Obs.Counter("rvnegtestd_jobs_resumed_total"),
		cDone:      cfg.Obs.Counter("rvnegtestd_jobs_done_total"),
		cDegraded:  cfg.Obs.Counter("rvnegtestd_jobs_degraded_total"),
		cFailed:    cfg.Obs.Counter("rvnegtestd_jobs_failed_total"),
		cCanceled:  cfg.Obs.Counter("rvnegtestd_jobs_canceled_total"),
		gQueued:    cfg.Obs.Gauge("rvnegtestd_jobs_queued"),
		gRunning:   cfg.Obs.Gauge("rvnegtestd_jobs_running"),
	}
	s.cond = sync.NewCond(&s.mu)
	jobs, err := store.List()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, job := range jobs {
		switch job.State {
		case StateRunning, StateCheckpointing:
			// A previous daemon died holding the slot. The engine
			// checkpoints under the job directory are the durable
			// state; re-queue and resume from them.
			if job.State == StateRunning {
				if err := job.transition(StateCheckpointing); err != nil {
					cancel()
					return nil, err
				}
			}
			if err := s.advance(job, StateQueued, ""); err != nil {
				cancel()
				return nil, err
			}
			s.cResumed.Inc()
			s.emit(obs.Event{Type: "job_resume", Job: job.ID, Worker: -1,
				Detail: fmt.Sprintf("recovered after restart (resume %d)", job.Resumes)})
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if job.State == StateQueued {
			s.queue = append(s.queue, job.ID)
		}
	}
	s.gQueued.Set(int64(len(s.queue)))
	return s, nil
}

// Start launches the slot workers. Call once.
func (s *Scheduler) Start() {
	for i := 0; i < s.slots; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close gracefully stops the scheduler: running jobs are interrupted,
// checkpoint their engines, and suspend back to queued (they resume on
// the next Open); the call returns once every slot has drained.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.cond.Broadcast()
	s.wg.Wait()
}

// emit sends a scheduler event (nil-safe).
func (s *Scheduler) emit(ev obs.Event) { s.events.Emit(ev) }

// Submit validates, persists and enqueues a new job.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	spec.Normalize()
	if err := spec.ValidateJob(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSchedulerClosed
	}
	job, err := s.store.NewJob(spec)
	if err != nil {
		return nil, err
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.queue = append(s.queue, job.ID)
	s.gQueued.Set(int64(len(s.queue)))
	s.cSubmitted.Inc()
	s.emit(obs.Event{Type: "job_submitted", Job: job.ID, Worker: -1,
		Detail: fmt.Sprintf("kind=%s workers=%d", job.Spec.Kind, job.Spec.Workers)})
	s.cond.Broadcast()
	return job.Clone(), nil
}

// Get returns a snapshot of one job.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	return job.Clone(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Clone())
	}
	return out
}

// Cancel stops a job: a queued job cancels immediately, a running job is
// interrupted (its engines checkpoint, then the job lands in canceled).
// Terminal and checkpointing jobs return ErrJobTerminal.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	switch job.State {
	case StateQueued:
		if err := s.advance(job, StateCanceled, ""); err != nil {
			return err
		}
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.gQueued.Set(int64(len(s.queue)))
		s.cCanceled.Inc()
		s.emit(obs.Event{Type: "job_canceled", Job: id, Worker: -1, Detail: "canceled while queued"})
		s.cond.Broadcast()
		return nil
	case StateRunning:
		ctl := s.running[id]
		if ctl == nil {
			return fmt.Errorf("campaign: job %s running but unowned", id)
		}
		ctl.canceled = true
		ctl.cancel()
		return nil
	default:
		return fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, job.State)
	}
}

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot.
func (s *Scheduler) Wait(ctx context.Context, id string) (*Job, error) {
	stop := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		job, ok := s.jobs[id]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoJob, id)
		}
		if job.State.Terminal() {
			return job.Clone(), nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.closed {
			return nil, ErrSchedulerClosed
		}
		s.cond.Wait()
	}
}

// worker is one scheduler slot: pop the next queued job, execute it,
// persist the outcome, repeat until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		s.gQueued.Set(int64(len(s.queue)))
		job := s.jobs[id]
		if err := job.transition(StateRunning); err != nil {
			// Cannot happen: a job leaves the queue when it leaves
			// queued. Drop the stale entry and leave the job as it is.
			s.mu.Unlock()
			continue
		}
		job.StartedNS = s.store.now()
		jobCtx, cancelJob := context.WithCancel(s.ctx)
		ctl := &slotCtl{cancel: cancelJob}
		s.running[id] = ctl
		s.gRunning.Set(int64(len(s.running)))
		if err := s.store.Put(job); err != nil {
			// The store is the source of truth; without it the job
			// cannot be tracked across restarts. Fail the job.
			s.finish(job, ctl, nil, fmt.Errorf("persisting job state: %w", err))
			cancelJob()
			continue
		}
		spec := job.Spec.Clone()
		s.mu.Unlock()

		s.emit(obs.Event{Type: "job_start", Job: id, Worker: -1})
		env := Env{
			CheckpointDir: s.store.CheckpointDir(id),
			QuarantineDir: s.store.QuarantineDir(id),
			Obs:           s.obs,
			Events:        s.events.ForJob(id),
		}
		res, err := Execute(jobCtx, spec, env)

		s.mu.Lock()
		s.finish(job, ctl, res, err)
		cancelJob()
	}
}

// finish moves a job out of the running state according to the
// execution outcome. Called with s.mu held; releases it. Each state is
// persisted before it becomes visible, and a state the store does not
// take fails the job instead: failed is a legal successor of both
// running and checkpointing.
func (s *Scheduler) finish(job *Job, ctl *slotCtl, res *Result, err error) {
	id := job.ID
	delete(s.running, id)
	s.gRunning.Set(int64(len(s.running)))

	// Every exit from running passes through checkpointing: the engine
	// checkpoints are already flushed (the engines save on the way out),
	// and the artifact write below happens under this state.
	if perr := s.advance(job, StateCheckpointing, ""); perr != nil {
		err = perr
	} else {
		s.emit(obs.Event{Type: "job_checkpointing", Job: id, Worker: -1})
		if err == nil {
			// Persist artifacts before declaring the job finished, so a
			// "done" state always implies readable artifacts.
			s.mu.Unlock()
			aerr := res.WriteArtifacts(s.store.ArtifactsDir(id))
			s.mu.Lock()
			if aerr != nil {
				err = fmt.Errorf("writing artifacts: %w", aerr)
			}
		}
	}

	to, detail := StateFailed, ""
	switch {
	case err == nil && res.Degraded():
		to, detail = StateDegraded, "degraded by harness faults"
	case err == nil:
		to = StateDone
	case errors.Is(err, ErrInterrupted) && ctl.canceled:
		to, detail = StateCanceled, "interrupted by operator"
	case errors.Is(err, ErrInterrupted):
		to, detail = StateQueued, "scheduler shutdown; will resume"
	default:
		detail = err.Error()
	}
	if perr := s.advance(job, to, detail); perr != nil {
		to, detail = StateFailed, perr.Error()
		if s.advance(job, to, detail) != nil {
			// The disk refused this write too and keeps the job's last
			// durable state, from which the next Open recovers it. This
			// scheduler has failed the job all the same.
			_ = job.transition(to)
			job.Error, job.FinishedNS = detail, s.store.now()
		}
	}

	switch to {
	case StateDone:
		s.cDone.Inc()
		s.emit(obs.Event{Type: "job_done", Job: id, Worker: -1})
	case StateDegraded:
		s.cDegraded.Inc()
		s.emit(obs.Event{Type: "job_done", Job: id, Worker: -1, Detail: detail})
	case StateCanceled:
		s.cCanceled.Inc()
		s.emit(obs.Event{Type: "job_canceled", Job: id, Worker: -1, Detail: detail})
	case StateQueued:
		// Daemon shutdown: suspended. The next Open resumes the job from
		// its checkpoints.
		s.queue = append(s.queue, id)
		s.gQueued.Set(int64(len(s.queue)))
		s.emit(obs.Event{Type: "job_suspend", Job: id, Worker: -1, Detail: detail})
	case StateFailed:
		s.cFailed.Inc()
		s.emit(obs.Event{Type: "job_failed", Job: id, Worker: -1, Detail: detail})
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// advance moves the job to state to and persists the move before the API
// can see it. A suspended job counts a resume; a finished one records its
// finish time, and a failed one its reason. When the move is illegal or
// the store does not take it, the job is left as it was.
func (s *Scheduler) advance(job *Job, to State, reason string) error {
	next := job.Clone()
	if err := next.transition(to); err != nil {
		return err
	}
	switch {
	case to == StateQueued:
		next.Resumes++
		next.StartedNS = 0
	case to.Terminal():
		next.FinishedNS = s.store.now()
		next.Degraded = to == StateDegraded
		if to == StateFailed {
			next.Error = reason
		}
	}
	if err := s.store.Put(next); err != nil {
		return fmt.Errorf("persisting job state: %w", err)
	}
	*job = *next
	return nil
}

// Store exposes the underlying job store for read-only path queries
// (artifact and quarantine listings in the HTTP layer).
func (s *Scheduler) Store() *Store { return s.store }
