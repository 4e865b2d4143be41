package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// pool is the bounded worker pool every unit of model evaluation runs
// through: batch items and asynchronous Monte Carlo jobs share the same
// slots, so a flood of batch traffic and a queue of jobs together never
// exceed the configured parallelism (GOMAXPROCS by default).
type pool struct {
	sem chan struct{}
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	return &pool{sem: make(chan struct{}, workers)}
}

// Acquire blocks until a slot frees or the context ends. Acquire and
// Release let the pool satisfy par.Gate, so sweep chunks share the same
// slots as batch items and Monte Carlo jobs — the one-pool invariant
// survives the streaming endpoint.
func (p *pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees the slot taken by Acquire.
func (p *pool) Release() { <-p.sem }

// JobState is the lifecycle state of an asynchronous job.
type JobState string

// Job lifecycle: queued -> running -> done | failed | canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is a point-in-time snapshot of an asynchronous job, shaped for JSON.
type Job struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Result   any        `json:"result,omitempty"`
	Error    *apiError  `json:"error,omitempty"`
}

type job struct {
	snap   Job
	cancel context.CancelFunc
}

// jobStore tracks asynchronous jobs: submission queues the work on the
// shared pool, polling returns snapshots, and drain supports graceful
// shutdown — wait for in-flight jobs, cancelling them only when the
// shutdown deadline expires. Finished jobs are retained (capped at
// maxJobs, oldest evicted first) so clients can poll results after
// completion.
type jobStore struct {
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // insertion order, for eviction
	maxJobs int
	wg      sync.WaitGroup
	root    context.Context
	stop    context.CancelFunc
	pool    *pool
	metrics *Metrics
}

func newJobStore(p *pool, m *Metrics, maxJobs int) *jobStore {
	if maxJobs < 1 {
		maxJobs = 1024
	}
	root, stop := context.WithCancel(context.Background())
	return &jobStore{
		jobs:    map[string]*job{},
		maxJobs: maxJobs,
		root:    root,
		stop:    stop,
		pool:    p,
		metrics: m,
	}
}

// newJobID returns a 16-byte random hex identifier.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// submit registers a job and runs fn on the shared pool. fn receives a
// context that is cancelled on forced shutdown; it should return promptly
// when the context ends.
func (s *jobStore) submit(fn func(ctx context.Context) (any, error)) Job {
	ctx, cancel := context.WithCancel(s.root)
	j := &job{
		snap:   Job{ID: newJobID(), State: JobQueued, Created: time.Now()},
		cancel: cancel,
	}
	s.mu.Lock()
	s.jobs[j.snap.ID] = j
	s.order = append(s.order, j.snap.ID)
	s.evictLocked()
	s.mu.Unlock()
	s.metrics.jobs.inc(string(JobQueued))

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		if err := s.pool.Acquire(ctx); err != nil {
			s.finish(j, nil, err)
			return
		}
		defer s.pool.Release()
		s.start(j)
		res, err := fn(ctx)
		s.finish(j, res, err)
	}()
	return s.get(j.snap.ID)
}

// start moves a job that holds a pool slot to running.
func (s *jobStore) start(j *job) {
	now := time.Now()
	s.mu.Lock()
	j.snap.State = JobRunning
	j.snap.Started = &now
	s.mu.Unlock()
	s.metrics.jobs.inc(string(JobRunning))
	s.metrics.jobsInFlight.Add(1)
}

func (s *jobStore) finish(j *job, res any, err error) {
	state := JobDone
	var apiErr *apiError
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = JobCanceled
		apiErr = &apiError{Code: CodeCanceled, Message: err.Error()}
	default:
		state = JobFailed
		apiErr = toAPIError(err)
	}
	now := time.Now()
	s.mu.Lock()
	j.snap.State = state
	j.snap.Finished = &now
	j.snap.Result = res
	j.snap.Error = apiErr
	ran := j.snap.Started != nil // a job canceled while queued never ran
	s.mu.Unlock()
	// Settle the gauge before counting the transition: a reader that sees
	// the terminal count sees the gauge it implies.
	if ran {
		s.metrics.jobsInFlight.Add(-1)
	}
	s.metrics.jobs.inc(string(state))
}

// get returns a snapshot of the job, with ok=false for unknown IDs.
func (s *jobStore) get(id string) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.snap
	}
	return Job{}
}

// lookup returns a snapshot and whether the job exists.
func (s *jobStore) lookup(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snap, true
}

// evictLocked drops the oldest finished jobs once the store exceeds its
// cap. Jobs still queued or running are never evicted.
func (s *jobStore) evictLocked() {
	if len(s.jobs) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		done := j.snap.State == JobDone || j.snap.State == JobFailed || j.snap.State == JobCanceled
		if len(s.jobs) > s.maxJobs && done {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = append([]string(nil), kept...)
}

// inFlight reports queued + running jobs.
func (s *jobStore) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.snap.State == JobQueued || j.snap.State == JobRunning {
			n++
		}
	}
	return n
}

// drain waits for in-flight jobs to complete. If the context ends first,
// running jobs are cancelled and drain waits for them to unwind before
// returning the context error.
func (s *jobStore) drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop()
		<-done
		return ctx.Err()
	}
}
