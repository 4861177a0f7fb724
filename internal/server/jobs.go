// The asynchronous job surface: POST /v1/jobs accepts a compile, sweep or
// optimize request and returns a job snapshot immediately; GET /v1/jobs/{id}
// reports state and per-cell progress (monotone — cells only ever accumulate);
// DELETE /v1/jobs/{id} cancels the job's context, which stops cell dispatch
// and aborts in-flight searches at their next checkpoint. One runner
// (startJob) starts every kind, and jobs run through exactly the same
// executors as the synchronous endpoints (compilePlan, runSweep and
// runOptimize), so they share the plan cache, the singleflight coalescing
// and the compilation semaphore; a job waiting for capacity simply stays
// "queued". Finished jobs remain queryable for the configured TTL and are
// then garbage-collected on the next jobs-API access.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
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

// job is one tracked asynchronous request. The immutable identity fields
// are set at creation; everything below mu is owned by it.
type job struct {
	id      string
	seq     uint64 // creation order
	kind    string // "compile", "sweep" or "optimize"
	created time.Time
	cancel  context.CancelFunc

	mu        sync.Mutex
	state     string
	errMsg    string
	finished  time.Time // terminal transition, for TTL garbage collection
	total     int       // cells in the request (1 for compile, design points for optimize)
	completed int       // completed cells: sweep results, the compile plan, evaluated design points
	results   []sweepSummary
	plan      []byte // serialized NetworkPlan (compile jobs)
	planCache bool   // the plan came from the cache
	frontier  []byte // serialized optimize.Frontier (optimize jobs)
}

// jobSnapshot is the wire form of a job. Results and Plan are only
// populated by the detail endpoint (GET /v1/jobs/{id}); the listing and the
// creation response carry identity and progress only.
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

// snapshot captures the job's current state; withPayload additionally
// copies the accumulated results (sweep), the serialized plan (compile) or
// the frontier (optimize). Progress is monotone: the completed count only
// ever grows, and the results slice is append-only, so two successive
// snapshots never disagree backwards.
func (j *job) snapshot(withPayload bool) jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := jobSnapshot{
		ID:             j.id,
		Kind:           j.kind,
		State:          j.state,
		Created:        j.created,
		CellsTotal:     j.total,
		CellsCompleted: j.completed,
		Error:          j.errMsg,
	}
	if withPayload {
		snap.Results = append([]sweepSummary(nil), j.results...)
		snap.Plan = j.plan
		snap.PlanCached = j.planCache
		snap.Frontier = j.frontier
	}
	return snap
}

// setRunning moves a queued job to running (a no-op once terminal).
func (j *job) setRunning() {
	j.mu.Lock()
	if j.state == stateQueued {
		j.state = stateRunning
	}
	j.mu.Unlock()
}

// addResult appends one completed cell.
func (j *job) addResult(sum sweepSummary) {
	j.mu.Lock()
	j.results = append(j.results, sum)
	j.completed++
	j.mu.Unlock()
}

// setPlan records a compile job's serialized plan.
func (j *job) setPlan(data []byte, cached bool) {
	j.mu.Lock()
	j.plan = data
	j.planCache = cached
	j.completed = 1
	j.mu.Unlock()
}

// addProgress counts one evaluated design point of an optimize job.
func (j *job) addProgress() {
	j.mu.Lock()
	j.completed++
	j.mu.Unlock()
}

// setFrontier records an optimize job's serialized frontier.
func (j *job) setFrontier(data []byte) {
	j.mu.Lock()
	j.frontier = data
	j.mu.Unlock()
}

// finish moves the job to its terminal state: done on nil, cancelled on
// context.Canceled (a DELETE), failed otherwise (including a deadline from
// the per-request timeout). It also releases the job's context resources.
func (j *job) finish(err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = stateDone
	case errors.Is(err, context.Canceled):
		j.state = stateCancelled
		j.errMsg = err.Error()
	default:
		j.state = stateFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel()
}

// terminalSince reports whether the job is terminal and, if so, when it got
// there.
func (j *job) terminalSince() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case stateDone, stateFailed, stateCancelled:
		return j.finished, true
	}
	return time.Time{}, false
}

// live reports whether the job is still queued or running.
func (j *job) live() bool {
	_, terminal := j.terminalSince()
	return !terminal
}

// jobSet owns the job table: registration, lookup, the live-jobs admission
// bound and TTL garbage collection (run on every jobs-API access rather
// than on a timer, so a Server needs no background goroutine and no
// Close method).
type jobSet struct {
	ttl     time.Duration
	maxLive int

	mu   sync.Mutex
	jobs map[string]*job
	seq  atomic.Uint64 // jobs created so far; the last job's seq

	cancels   atomic.Uint64
	collected atomic.Uint64
}

func newJobSet(ttl time.Duration, maxLive int) *jobSet {
	return &jobSet{ttl: ttl, maxLive: maxLive, jobs: make(map[string]*job)}
}

// gcLocked drops terminal jobs older than the TTL; the caller holds mu.
func (js *jobSet) gcLocked(now time.Time) {
	for id, j := range js.jobs {
		if finished, terminal := j.terminalSince(); terminal && now.Sub(finished) >= js.ttl {
			delete(js.jobs, id)
			js.collected.Add(1)
		}
	}
}

// add garbage-collects, enforces the live-jobs bound and registers a new
// job under a fresh id.
func (js *jobSet) add(kind string, total int, cancel context.CancelFunc) (*job, *httpError) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.gcLocked(time.Now())
	if live := js.liveLocked(); live >= js.maxLive {
		return nil, errorf(http.StatusServiceUnavailable,
			"server at capacity: %d jobs are already queued or running", live)
	}
	seq := js.seq.Add(1)
	j := &job{
		id:      fmt.Sprintf("job-%d", seq),
		seq:     seq,
		kind:    kind,
		created: time.Now(),
		cancel:  cancel,
		state:   stateQueued,
		total:   total,
	}
	js.jobs[j.id] = j
	return j, nil
}

// get garbage-collects, then looks a job up.
func (js *jobSet) get(id string) (*job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.gcLocked(time.Now())
	j, ok := js.jobs[id]
	return j, ok
}

// list garbage-collects, then returns every remaining job.
func (js *jobSet) list() []*job {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.gcLocked(time.Now())
	out := make([]*job, 0, len(js.jobs))
	for _, j := range js.jobs {
		out = append(out, j)
	}
	return out
}

// JobStats are the job table's cumulative counters and current gauge.
type JobStats struct {
	// Created counts every accepted job; Cancelled counts DELETE requests
	// that reached a live job; Collected counts jobs dropped by the TTL
	// garbage collector.
	Created   uint64 `json:"created"`
	Cancelled uint64 `json:"cancelled"`
	Collected uint64 `json:"collected"`

	// Live is the current number of queued or running jobs.
	Live int `json:"live"`
}

// liveLocked counts queued or running jobs; the caller holds mu.
func (js *jobSet) liveLocked() int {
	live := 0
	for _, j := range js.jobs {
		if j.live() {
			live++
		}
	}
	return live
}

func (js *jobSet) stats() JobStats {
	js.mu.Lock()
	live := js.liveLocked()
	js.mu.Unlock()
	return JobStats{
		Created:   js.seq.Load(),
		Cancelled: js.cancels.Load(),
		Collected: js.collected.Load(),
		Live:      live,
	}
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
				j.finish(ctx.Err())
				return
			}
		}
		j.setRunning()
		j.finish(run(ctx, j))
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
			j.setPlan(entry.data, cached)
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
		return s.runSweep(ctx, cells, j.addResult)
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
				j.addProgress()
			}
		})
		if err != nil {
			return err
		}
		data, err := f.ToJSON()
		if err == nil {
			j.setFrontier(data)
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
	if j.live() {
		s.jobs.cancels.Add(1)
	}
	// Cancelling is asynchronous: the runner observes the context and moves
	// the job to "cancelled" (idempotent on terminal jobs — their state no
	// longer changes). The response is the snapshot at this instant; clients
	// poll GET until the state is terminal.
	j.cancel()
	writeJSON(w, http.StatusOK, map[string]any{"job": j.snapshot(false)})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq }) // creation order
	snaps := make([]jobSnapshot, 0, len(jobs))
	for _, j := range jobs {
		snaps = append(snaps, j.snapshot(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": snaps})
}
