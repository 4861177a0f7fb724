// The asynchronous job surface: POST /v1/jobs accepts a compile, sweep or
// optimize request and returns a job snapshot immediately; GET /v1/jobs/{id}
// reports state and per-cell progress (monotone — cells only ever accumulate);
// DELETE /v1/jobs/{id} cancels the job's context, which stops cell dispatch
// and aborts in-flight searches at their next checkpoint. One runner
// (startJob) starts every kind, and jobs run through exactly the same
// executors as the synchronous endpoints (compilePlan, runSweep and
// runOptimize), so they share the plan cache, the singleflight coalescing
// and the compilation semaphore; a job waiting for capacity simply stays
// "queued". Finished jobs remain queryable for the configured TTL, and at
// most 16 per live-job slot are kept: past that the oldest are collected
// early.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/optimize"
)

// Job states. A job is live in stateQueued and stateRunning and terminal in
// the other three; terminal states never change again.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one tracked asynchronous request: its wire snapshot, updated in
// place under mu, plus the cancel func a DELETE calls and the time the job
// went terminal, which the job table collects it by.
type job struct {
	cancel   context.CancelFunc
	finished time.Time // zero while live; guarded by the jobSet's mu

	mu   sync.Mutex
	snap jobSnapshot
}

// jobSnapshot is the wire form of a job, and the job's only record of
// itself. Results, Plan, PlanCached and Frontier are its payload, which
// only the detail endpoint (GET /v1/jobs/{id}) serves; the listing and the
// creation and DELETE responses carry identity and progress only. Progress
// is monotone: CellsCompleted only grows and Results is append-only, so
// two successive snapshots never disagree backwards.
type jobSnapshot struct {
	ID             string          `json:"id"`
	Kind           string          `json:"kind"`
	State          string          `json:"state"`
	Created        time.Time       `json:"created"`
	CellsTotal     int             `json:"cells_total"`
	CellsCompleted int             `json:"cells_completed"`
	Error          string          `json:"error,omitempty"`
	Results        []sweepSummary  `json:"results,omitempty"`
	Plan           json.RawMessage `json:"plan,omitempty"`
	PlanCached     bool            `json:"plan_cached,omitempty"`
	Frontier       json.RawMessage `json:"frontier,omitempty"`
}

// update changes the job's snapshot in place under its lock.
func (j *job) update(f func(*jobSnapshot)) {
	j.mu.Lock()
	f(&j.snap)
	j.mu.Unlock()
}

// snapshot copies the job's snapshot, dropping the payload unless
// withPayload is set. The copy shares Results' backing array with the job:
// later appends land past the copy's length and no result changes once
// appended, so the copy reads safely after the lock is released.
func (j *job) snapshot(withPayload bool) jobSnapshot {
	j.mu.Lock()
	snap := j.snap
	j.mu.Unlock()
	if !withPayload {
		snap.Results, snap.Plan, snap.PlanCached, snap.Frontier = nil, nil, false, nil
	}
	return snap
}

// doneJobsPerSlot is how many finished jobs the table keeps per live-job
// slot (Config.MaxJobs): 1,024 at the default of 64. A finished sweep job
// holds up to maxSweepCells summaries, and clients can finish jobs far
// faster than the TTL expires them, so the TTL alone bounds nothing.
const doneJobsPerSlot = 16

// jobSet owns the job table: registration, lookup, the live-jobs admission
// bound and collection. It counts its live jobs and keeps its terminal
// jobs in finish order, so admission, lookup and stats never walk the
// table, and collection visits only the jobs it drops: the oldest terminal
// jobs past the TTL, and past maxDone. It collects whenever it is read or
// a job finishes, rather than on a timer, so a Server needs no background
// goroutine and no Close method.
type jobSet struct {
	ttl     time.Duration
	maxLive int
	maxDone int

	mu                            sync.Mutex
	jobs                          map[string]*job
	done                          []*job // terminal jobs, oldest first
	live                          int
	created, cancelled, collected uint64
}

func newJobSet(ttl time.Duration, maxLive int) *jobSet {
	return &jobSet{ttl: ttl, maxLive: maxLive, maxDone: doneJobsPerSlot * maxLive, jobs: make(map[string]*job)}
}

// collectLocked drops the oldest terminal jobs while they are past the TTL
// or more than maxDone are kept; the caller holds mu. The TTL is the same
// for every job, so the first job it keeps ends the walk. A job's ID never
// changes, so reading it takes no job lock.
func (js *jobSet) collectLocked(now time.Time) {
	for len(js.done) > 0 && (len(js.done) > js.maxDone || now.Sub(js.done[0].finished) >= js.ttl) {
		delete(js.jobs, js.done[0].snap.ID)
		js.done[0] = nil // let the dropped job go before append reallocates
		js.done = js.done[1:]
		js.collected++
	}
}

// add collects, enforces the live-jobs bound and registers a new job under
// a fresh id.
func (js *jobSet) add(kind string, total int, cancel context.CancelFunc) (*job, *httpError) {
	js.mu.Lock()
	defer js.mu.Unlock()
	now := time.Now()
	js.collectLocked(now)
	if js.live >= js.maxLive {
		return nil, errorf(http.StatusServiceUnavailable,
			"server at capacity: %d jobs are already queued or running", js.live)
	}
	js.created++
	js.live++
	j := &job{cancel: cancel, snap: jobSnapshot{
		ID:         fmt.Sprintf("job-%d", js.created),
		Kind:       kind,
		State:      stateQueued,
		Created:    now,
		CellsTotal: total,
	}}
	js.jobs[j.snap.ID] = j
	return j, nil
}

// finish moves j to its terminal state — done on nil, cancelled on
// context.Canceled (a DELETE), failed otherwise, a deadline from the
// per-request timeout included — and releases its context. The state
// changes under the table's lock together with the live count, so a client
// that sees a job terminal can use its slot at once.
func (js *jobSet) finish(j *job, err error) {
	state, msg := stateDone, ""
	if err != nil {
		state, msg = stateFailed, err.Error()
		if errors.Is(err, context.Canceled) {
			state = stateCancelled
		}
	}
	js.mu.Lock()
	j.update(func(snap *jobSnapshot) { snap.State, snap.Error = state, msg })
	j.finished = time.Now()
	js.live--
	js.done = append(js.done, j)
	js.collectLocked(j.finished)
	js.mu.Unlock()
	j.cancel()
}

// cancel cancels j's context, counting the cancellation if j is live. The
// runner observes the context and finishes the job as cancelled.
func (js *jobSet) cancel(j *job) {
	js.mu.Lock()
	if j.finished.IsZero() {
		js.cancelled++
	}
	js.mu.Unlock()
	j.cancel()
}

// get collects, then looks a job up.
func (js *jobSet) get(id string) (*job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.collectLocked(time.Now())
	j, ok := js.jobs[id]
	return j, ok
}

// list collects, then returns every remaining job's snapshot, without
// payloads, in creation order.
func (js *jobSet) list() []jobSnapshot {
	js.mu.Lock()
	js.collectLocked(time.Now())
	snaps := make([]jobSnapshot, 0, len(js.jobs))
	for _, j := range js.jobs {
		snaps = append(snaps, j.snapshot(false))
	}
	js.mu.Unlock()
	// An id is "job-" and the creation count in decimal, so a shorter id
	// is an older job.
	slices.SortFunc(snaps, func(a, b jobSnapshot) int {
		return cmp.Or(cmp.Compare(len(a.ID), len(b.ID)), strings.Compare(a.ID, b.ID))
	})
	return snaps
}

// JobStats are the job table's cumulative counters and current gauge.
type JobStats struct {
	// Created counts every accepted job; Cancelled counts DELETE requests
	// that reached a live job; Collected counts finished jobs dropped from
	// the table, after their TTL or past the bound on finished jobs kept.
	Created   uint64 `json:"created"`
	Cancelled uint64 `json:"cancelled"`
	Collected uint64 `json:"collected"`

	// Live is the current number of queued or running jobs.
	Live int `json:"live"`
}

func (js *jobSet) stats() JobStats {
	js.mu.Lock()
	defer js.mu.Unlock()
	return JobStats{Created: js.created, Cancelled: js.cancelled, Collected: js.collected, Live: js.live}
}

// Job kinds.
const (
	kindCompile  = "compile"
	kindSweep    = "sweep"
	kindOptimize = "optimize"
)

// jobRequest is the POST /v1/jobs body: exactly one of the three members,
// each in the same form its synchronous endpoint accepts (the optimize
// member is a raw design-space spec).
type jobRequest struct {
	Compile  *compileRequest  `json:"compile"`
	Sweep    *sweepRequest    `json:"sweep"`
	Optimize *json.RawMessage `json:"optimize"`
}

// jobContext derives a job's execution context: rooted in the process
// (context.Background(), NOT the submitting request — the whole point of a
// job is to outlive it), bounded by the configured per-request deadline,
// and cancellable by DELETE. Jobs are not drained by the daemon's graceful
// shutdown: a SIGTERM ends the process once open connections finish,
// abandoning whatever jobs are still running.
func (s *Server) jobContext() (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		// Cancelling before the deadline ends the context with
		// context.Canceled, so a DELETE still reads as a cancellation.
		return context.WithTimeout(context.Background(), s.timeout)
	}
	return context.WithCancel(context.Background())
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if herr := decodeJSONBody(w, r, s.maxBody, &req); herr != nil {
		writeError(w, herr)
		return
	}
	given := 0
	for _, set := range []bool{req.Compile != nil, req.Sweep != nil, req.Optimize != nil} {
		if set {
			given++
		}
	}
	switch {
	case given > 1:
		writeError(w, errorf(http.StatusUnprocessableEntity,
			`a job is exactly one of "compile", "sweep" or "optimize"`))
		return
	case req.Compile != nil:
		s.createCompileJob(w, req.Compile)
	case req.Sweep != nil:
		s.createSweepJob(w, req.Sweep)
	case req.Optimize != nil:
		s.createOptimizeJob(w, *req.Optimize)
	default:
		writeError(w, errorf(http.StatusUnprocessableEntity,
			`missing job body: give "compile", "sweep" or "optimize"`))
	}
}

// startJob is the one job runner: it registers an already-validated job
// (503 beyond the live-jobs bound), answers 202 with its snapshot, and runs
// it in the background under the job's own context. A stream job (sweep or
// optimize) first waits for a sweep-stream slot, staying "queued" where a
// synchronous stream would be rejected — admission control for jobs is the
// live-jobs bound. run does the kind-specific work and the job finishes
// with its error.
func (s *Server) startJob(w http.ResponseWriter, kind string, total int, stream bool, run func(context.Context, *job) error) {
	ctx, cancel := s.jobContext()
	j, herr := s.jobs.add(kind, total, cancel)
	if herr != nil {
		cancel()
		writeError(w, herr)
		return
	}
	go func() {
		if stream {
			select {
			case s.sweepSem <- struct{}{}:
				defer func() { <-s.sweepSem }()
			case <-ctx.Done():
				s.jobs.finish(j, ctx.Err())
				return
			}
		}
		j.update(func(snap *jobSnapshot) { snap.State = stateRunning })
		s.jobs.finish(j, run(ctx, j))
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"job": j.snapshot(false)})
}

// The create*Job functions validate eagerly — a 422 at submission, not a
// failed job, for a request the synchronous endpoint would reject — and
// hand startJob the run step, which goes through the same executor as the
// synchronous endpoint.

func (s *Server) createCompileJob(w http.ResponseWriter, body *compileRequest) {
	creq, herr := body.resolve()
	if herr != nil {
		writeError(w, herr)
		return
	}
	key, err := compile.Key(creq)
	if err != nil {
		writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
		return
	}
	s.startJob(w, kindCompile, 1, false, func(ctx context.Context, j *job) error {
		entry, cached, err := s.compilePlan(ctx, key, creq, true, false)
		if err == nil {
			j.update(func(snap *jobSnapshot) { snap.Plan, snap.PlanCached, snap.CellsCompleted = entry.data, cached, 1 })
		}
		return err
	})
}

func (s *Server) createSweepJob(w http.ResponseWriter, body *sweepRequest) {
	cells, herr := body.cells()
	if herr != nil {
		writeError(w, herr)
		return
	}
	s.startJob(w, kindSweep, len(cells), true, func(ctx context.Context, j *job) error {
		return s.runSweep(ctx, cells, func(sum sweepSummary) {
			j.update(func(snap *jobSnapshot) {
				snap.Results = append(snap.Results, sum)
				snap.CellsCompleted++
			})
		})
	})
}

// createOptimizeJob counts progress per evaluated design point; the
// finished job's detail snapshot carries the serialized frontier.
func (s *Server) createOptimizeJob(w http.ResponseWriter, raw json.RawMessage) {
	space, herr := resolveOptimizeSpace(raw)
	if herr != nil {
		writeError(w, herr)
		return
	}
	points, err := space.Points()
	if err != nil {
		writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
		return
	}
	s.startJob(w, kindOptimize, points, true, func(ctx context.Context, j *job) error {
		f, err := s.runOptimize(ctx, space, func(e optimize.Event) {
			if e.Kind == "admit" || e.Kind == "reject" {
				j.update(func(snap *jobSnapshot) { snap.CellsCompleted++ })
			}
		})
		if err != nil {
			return err
		}
		data, err := f.ToJSON()
		if err == nil {
			j.update(func(snap *jobSnapshot) { snap.Frontier = data })
		}
		return err
	})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, errorf(http.StatusNotFound, "no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.snapshot(true)})
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, errorf(http.StatusNotFound, "no such job %q", r.PathValue("id")))
		return
	}
	// Cancelling is asynchronous: the runner observes the context and moves
	// the job to "cancelled" (idempotent on terminal jobs — their state no
	// longer changes). The response is the snapshot at this instant; clients
	// poll GET until the state is terminal.
	s.jobs.cancel(j)
	writeJSON(w, http.StatusOK, map[string]any{"job": j.snapshot(false)})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}
