package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distcolor"
	"distcolor/internal/graph"
	"distcolor/internal/obs"
	"distcolor/internal/serve/runcfg"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// terminal reports whether a status is final.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job is one coloring request moving through the scheduler. Fields below
// the mutex line are guarded by mu; done is closed exactly once when the
// job reaches a terminal status.
type Job struct {
	ID      string
	GraphID string
	Cfg     runcfg.Config
	// ReqID names the HTTP request that created the job, threading through
	// the structured-log lifecycle events so a job's whole history joins
	// back to one request ID. Coalesced duplicates keep the creator's ID.
	ReqID string
	// TraceID is the creating request's trace ID (empty when the job was
	// submitted with observation off), and span is that request's root span
	// context — the parent the worker hangs queue-wait, run and engine
	// spans under. Like ReqID, coalesced duplicates keep the creator's.
	TraceID string
	span    obs.SpanContext
	key     string       // coalescing identity: graph + canonical config
	g       *graph.Graph // pinned at submit so LRU eviction can't race the run

	// ctx is cancelled by DELETE /v1/jobs/{id} and by client-disconnect
	// abort; the run observes it cooperatively (within one LOCAL round).
	ctx    context.Context
	cancel context.CancelFunc

	// refs counts submissions interested in this job (1 for the creating
	// request, +1 per coalesced duplicate). Client-disconnect abort only
	// cancels jobs nobody else is interested in.
	refs atomic.Int32

	// accounted guards terminal-status accounting: whichever path observes
	// the job's end first — the worker finishing a run, or a cancel
	// terminalizing a queued job — wins the CAS in Server.recordTerminal
	// and the job counts exactly once.
	accounted atomic.Bool

	done chan struct{}

	mu       sync.Mutex
	status   JobStatus
	result   *runcfg.Result
	errMsg   string
	trace    *distcolor.TraceReport
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// Status returns the current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// JobView is a consistent point-in-time snapshot of a job's observable
// state, taken under one lock so a job finishing mid-request can never
// yield a self-contradictory response (e.g. status running next to a
// result, or a failed status with the error message not yet visible).
type JobView struct {
	Status   JobStatus
	Result   *runcfg.Result
	Err      string
	Enqueued time.Time
	Started  time.Time
	Finished time.Time
}

// Snapshot returns a consistent view of the job's state.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		Status:   j.status,
		Result:   j.result,
		Err:      j.errMsg,
		Enqueued: j.enqueued,
		Started:  j.started,
		Finished: j.finished,
	}
}

// setTrace attaches the run's round-trace report. The worker calls it
// before finish, so anyone released by Done observes the trace.
func (j *Job) setTrace(rep *distcolor.TraceReport) {
	j.mu.Lock()
	j.trace = rep
	j.mu.Unlock()
}

// TraceReport returns the job's recorded round trace, nil when the job
// never executed (still queued, cancelled before start) or tracing was off.
func (j *Job) TraceReport() *distcolor.TraceReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Done is closed when the job reaches done, failed or cancelled.
func (j *Job) Done() <-chan struct{} { return j.done }

// Context is the job's cancellation context; the executing run watches it.
func (j *Job) Context() context.Context { return j.ctx }

// Cancel requests cancellation of the job's execution. A queued job is
// terminalized by the server (see Server.cancelJob); a running job's
// context is cancelled and the worker finishes it as cancelled.
func (j *Job) Cancel() { j.cancel() }

// tryStart atomically transitions queued → running; it fails when the job
// was cancelled (or otherwise terminalized) before a worker picked it up.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// markCancelledIfQueued atomically transitions queued → cancelled. It
// reports whether it performed the transition (false when the job already
// started or finished); on true the caller accounts the job and then calls
// release.
func (j *Job) markCancelledIfQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusCancelled
	j.errMsg = context.Canceled.Error()
	j.finished = time.Now()
	return true
}

// finish records a run's outcome. Waiters are not released yet: the caller
// accounts the job and then calls release.
func (j *Job) finish(res *runcfg.Result, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
	case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
		// The job's own context was cancelled (DELETE or disconnect abort);
		// a per-job deadline expiring lands in the failed branch instead.
		j.status = StatusCancelled
		j.errMsg = err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	// Drop the pinned graph: it was held so LRU eviction could not race the
	// run, and nothing reads it after this. Keeping it would let up to
	// RetainJobs terminal jobs hold evicted graphs alive, defeating the
	// graph store's memory bound under varied-graph traffic.
	j.g = nil
	j.mu.Unlock()
}

// release wakes the job's waiters and frees its context's resources (timeout
// timers in particular). It runs once per job, after the job was counted by
// JobRegistry.markTerminal and Server.recordTerminal, so a client released
// by Done always finds its job in /v1/stats.
func (j *Job) release() {
	close(j.done)
	j.cancel()
}

// JobRegistry tracks jobs by ID and coalesces identical work: the coloring
// algorithms are deterministic in (graph, config), so two requests with the
// same identity are one job. Terminal jobs are retained (and coalesced
// against) up to a bound, then forgotten oldest-first; queued and running
// jobs are never evicted.
type JobRegistry struct {
	mu       sync.Mutex
	seq      uint64
	byID     map[string]*Job
	byKey    map[string]*Job
	terminal *list.List // *Job in finish order, oldest at back
	elems    map[string]*list.Element
	retain   int
}

// NewJobRegistry returns a registry retaining up to retain terminal jobs.
func NewJobRegistry(retain int) *JobRegistry {
	if retain < 1 {
		retain = 1
	}
	return &JobRegistry{
		byID:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
		terminal: list.New(),
		elems:    make(map[string]*list.Element),
		retain:   retain,
	}
}

// jobKey is the coalescing identity of a request.
func jobKey(graphID string, cfg runcfg.Config) string {
	return fmt.Sprintf("%s|%s", graphID, cfg.Key())
}

// Intern returns the job for (graphID, cfg): an existing queued, running or
// successfully-done job with the same identity (coalesced=true), or a fresh
// queued job registered under a new ID and stamped with the creating
// request's reqID and root span context. Failed and cancelled jobs are not
// coalesced against, so a retry re-executes. When fresh is set, coalescing
// is bypassed and a new job is always minted.
func (r *JobRegistry) Intern(graphID string, g *graph.Graph, cfg runcfg.Config, fresh bool, reqID string, span obs.SpanContext) (job *Job, coalesced bool) {
	key := jobKey(graphID, cfg)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !fresh {
		if j, ok := r.byKey[key]; ok {
			if s := j.Status(); s != StatusFailed && s != StatusCancelled {
				j.refs.Add(1)
				return j, true
			}
		}
	}
	r.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:       fmt.Sprintf("j%d", r.seq),
		GraphID:  graphID,
		Cfg:      cfg,
		ReqID:    reqID,
		span:     span,
		key:      key,
		g:        g,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		status:   StatusQueued,
		enqueued: time.Now(),
	}
	if span.Valid() {
		j.TraceID = span.TraceID.String()
	}
	j.refs.Store(1)
	r.byID[j.ID] = j
	// A fresh job must not displace a healthy retained job as the key's
	// coalescing target: if it is later rolled back by backpressure, the
	// displaced result would be orphaned and every future identical request
	// would re-execute. Determinism makes the retained result just as good.
	if cur, ok := r.byKey[key]; !ok || cur.Status() == StatusFailed || cur.Status() == StatusCancelled {
		r.byKey[key] = j
	}
	return j, false
}

// Get looks a job up by ID.
func (r *JobRegistry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// Decouple removes a job from the coalescing map (it stays addressable by
// ID) so no future submission attaches to it — called on cancellation
// before the job's context is torn down.
func (r *JobRegistry) Decouple(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byKey[j.key] == j {
		delete(r.byKey, j.key)
	}
}

// Release removes a job that was interned but could not be enqueued
// (backpressure), so the identity maps never point at a job no worker will
// ever run.
func (r *JobRegistry) Release(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, j.ID)
	if r.byKey[j.key] == j {
		delete(r.byKey, j.key)
	}
}

// markTerminal records that j finished and evicts the oldest retained
// terminal jobs beyond the retention bound.
func (r *JobRegistry) markTerminal(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.elems[j.ID] = r.terminal.PushFront(j)
	for r.terminal.Len() > r.retain {
		old := r.terminal.Back()
		oj := old.Value.(*Job)
		r.terminal.Remove(old)
		delete(r.elems, oj.ID)
		delete(r.byID, oj.ID)
		if r.byKey[oj.key] == oj {
			delete(r.byKey, oj.key)
		}
	}
}
