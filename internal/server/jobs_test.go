package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
)

// jobResponse decodes the {"job": {...}} envelope.
func jobResponse(t *testing.T, data []byte) jobSnapshot {
	t.Helper()
	var env struct {
		Job jobSnapshot `json:"job"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("job response not JSON: %v (%s)", err, data)
	}
	return env.Job
}

// del issues a DELETE and returns the status and body.
func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// pollJob GETs the job until pred is satisfied or the deadline passes.
func pollJob(t *testing.T, url string, pred func(jobSnapshot) bool) jobSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := get(t, url)
		if status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, body)
		}
		snap := jobResponse(t, body)
		if pred(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the expected state: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweepJobRoundTrip is the acceptance test for the job surface: submit
// a sweep, watch its progress grow monotonically to completion, and check
// the final results cover every cell with the same summaries the
// synchronous stream would produce.
func TestSweepJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"sweep": {
	  "networks": ["ResNet-18", "VGG-13"],
	  "arrays": ["256x256", "512x512"]
	}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, body)
	}
	snap := jobResponse(t, body)
	if snap.ID == "" || snap.Kind != "sweep" || snap.CellsTotal != 4 {
		t.Fatalf("creation snapshot %+v", snap)
	}
	if snap.State != stateQueued && snap.State != stateRunning {
		t.Fatalf("fresh job in state %q", snap.State)
	}

	// Progress must be monotone across polls and end at done with every
	// cell completed.
	url := ts.URL + "/v1/jobs/" + snap.ID
	last := -1
	final := pollJob(t, url, func(s jobSnapshot) bool {
		if s.CellsCompleted < last {
			t.Fatalf("progress went backwards: %d -> %d", last, s.CellsCompleted)
		}
		last = s.CellsCompleted
		return s.State == stateDone
	})
	if final.CellsCompleted != 4 || len(final.Results) != 4 {
		t.Fatalf("final snapshot: %d completed, %d results, want 4/4", final.CellsCompleted, len(final.Results))
	}
	seen := map[string]bool{}
	for _, sum := range final.Results {
		if sum.Error != "" {
			t.Errorf("%s/%s: error %q", sum.Network, sum.Array, sum.Error)
		}
		if sum.Cycles <= 0 || sum.Speedup <= 1 {
			t.Errorf("%s/%s: implausible totals %+v", sum.Network, sum.Array, sum)
		}
		seen[sum.Network+"/"+sum.Array] = true
	}
	if len(seen) != 4 {
		t.Errorf("results cover %d distinct cells, want 4: %v", len(seen), seen)
	}

	// The listing includes the job, without the payload.
	status, listBody := get(t, ts.URL+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	var listing struct {
		Jobs []jobSnapshot `json:"jobs"`
	}
	if err := json.Unmarshal(listBody, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != snap.ID || listing.Jobs[0].Results != nil {
		t.Errorf("listing = %+v", listing.Jobs)
	}
}

// TestCompileJobMatchesGolden pins that a compile job's plan payload is the
// exact bytes the synchronous endpoint serves (and thus the committed
// golden plan).
func TestCompileJobMatchesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"compile": {"network": "VGG-13", "array": "512x512"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	snap := jobResponse(t, body)
	if snap.Kind != "compile" || snap.CellsTotal != 1 {
		t.Fatalf("creation snapshot %+v", snap)
	}
	final := pollJob(t, ts.URL+"/v1/jobs/"+snap.ID, func(s jobSnapshot) bool { return s.State == stateDone })
	if final.CellsCompleted != 1 {
		t.Errorf("final completed = %d, want 1", final.CellsCompleted)
	}
	golden, err := os.ReadFile("../compile/testdata/vgg13_512_plan.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot envelope re-indents the nested plan, so compare through
	// the canonical serialization: deserialize (which also re-validates the
	// totals) and re-serialize.
	plan, err := compile.FromJSON(final.Plan)
	if err != nil {
		t.Fatalf("job plan does not re-validate: %v", err)
	}
	replayed, err := plan.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, golden) {
		t.Error("job plan differs from the committed golden file")
	}

	// The plan went through the shared cache: the synchronous endpoint now
	// hits it and serves the same plan (compact wire encoding).
	syncResp, syncBody := post(t, ts.URL+"/v1/compile", `{"network": "VGG-13", "array": "512x512"}`)
	if syncResp.Header.Get("X-Cache") != "hit" {
		t.Errorf("sync compile after job: X-Cache %q, want hit (shared machinery)", syncResp.Header.Get("X-Cache"))
	}
	syncPlan, err := compile.FromJSON(syncBody)
	if err != nil {
		t.Fatalf("sync plan after job does not re-validate: %v", err)
	}
	syncReplayed, err := syncPlan.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(syncReplayed, golden) {
		t.Error("sync bytes after the job differ from the golden file")
	}
}

// TestJobLifecycleCancelAndGC is the create → poll → cancel → 404-after-GC
// lifecycle (run under -race in CI): a gated sweep job completes one cell,
// is cancelled mid-flight, keeps its partial results in the cancelled
// snapshot, and is garbage-collected after the TTL.
func TestJobLifecycleCancelAndGC(t *testing.T) {
	gate := newGateSearcher()
	_, ts := newTestServer(t, Config{Searcher: gate, MaxConcurrent: 1, JobTTL: 50 * time.Millisecond})
	body := fmt.Sprintf(`{"sweep": {"networks": [%s], "arrays": ["64x64", "128x128", "256x256"]}}`, oneLayerNet(8))
	resp, data := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := jobResponse(t, data).ID
	url := ts.URL + "/v1/jobs/" + id

	gate.allow(1) // exactly one cell may complete
	pollJob(t, url, func(s jobSnapshot) bool { return s.CellsCompleted == 1 })

	status, delBody := del(t, url)
	if status != http.StatusOK {
		t.Fatalf("DELETE status %d: %s", status, delBody)
	}
	final := pollJob(t, url, func(s jobSnapshot) bool { return s.State == stateCancelled })
	if final.CellsCompleted != 1 || len(final.Results) != 1 {
		t.Errorf("cancelled job lost its partial results: %+v", final)
	}
	if final.Error == "" {
		t.Error("cancelled job carries no error")
	}

	// After the TTL the next access garbage-collects the job: 404 for GET
	// and DELETE alike.
	time.Sleep(80 * time.Millisecond)
	if status, body := get(t, url); status != http.StatusNotFound {
		t.Fatalf("GET after GC: status %d: %s", status, body)
	}
	if status, _ := del(t, url); status != http.StatusNotFound {
		t.Fatalf("DELETE after GC: status %d", status)
	}
}

// TestJobErrorPaths pins the submission-time rejections: structurally bad
// bodies, bad references (the same 422s the synchronous endpoints give) and
// the live-jobs admission bound.
func TestJobErrorPaths(t *testing.T) {
	gate := newGateSearcher()
	_, ts := newTestServer(t, Config{Searcher: gate, MaxJobs: 1})
	for name, tc := range map[string]struct {
		body   string
		status int
	}{
		"malformed":    {`{"compile": `, http.StatusBadRequest},
		"unknown kind": {`{"verify": {}}`, http.StatusBadRequest},
		"empty":        {`{}`, http.StatusUnprocessableEntity},
		"both kinds":   {`{"compile": {"network": "VGG-13", "array": "64x64"}, "sweep": {"networks": ["VGG-13"], "arrays": ["64x64"]}}`, http.StatusUnprocessableEntity},
		"bad network":  {`{"compile": {"network": "LeNet-5", "array": "64x64"}}`, http.StatusUnprocessableEntity},
		"bad sweep":    {`{"sweep": {"networks": ["VGG-13"]}}`, http.StatusUnprocessableEntity},
	} {
		resp, body := post(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.status, body)
		}
	}
	if status, _ := get(t, ts.URL+"/v1/jobs/job-999"); status != http.StatusNotFound {
		t.Errorf("unknown job GET status %d, want 404", status)
	}

	// One gated job occupies the single job slot; a second submission is
	// rejected 503 until the first finishes.
	resp, data := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"compile": {"network": %s, "array": "64x64"}}`, oneLayerNet(8)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := jobResponse(t, data).ID
	resp, data = post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"compile": {"network": %s, "array": "64x64"}}`, oneLayerNet(10)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-limit submission: status %d, want 503 (%s)", resp.StatusCode, data)
	}
	gate.allow(1)
	pollJob(t, ts.URL+"/v1/jobs/"+id, func(s jobSnapshot) bool { return s.State == stateDone })
	if resp, data := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"compile": {"network": %s, "array": "64x64"}}`, oneLayerNet(12))); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-completion submission: status %d (%s)", resp.StatusCode, data)
	} else {
		gate.allow(1)
		pollJob(t, ts.URL+"/v1/jobs/"+jobResponse(t, data).ID, func(s jobSnapshot) bool { return s.State == stateDone })
	}
}

// TestJobStats pins the /stats job counters through a full lifecycle.
func TestJobStats(t *testing.T) {
	gate := newGateSearcher()
	s, ts := newTestServer(t, Config{Searcher: gate, JobTTL: -1}) // collect terminal jobs immediately
	resp, data := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"compile": {"network": %s, "array": "64x64"}}`, oneLayerNet(8)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := jobResponse(t, data).ID
	if st := s.Stats().Jobs; st.Created != 1 || st.Live != 1 {
		t.Errorf("stats after create: %+v", st)
	}
	if status, _ := del(t, ts.URL+"/v1/jobs/"+id); status != http.StatusOK {
		t.Fatalf("DELETE status %d", status)
	}
	// The runner observes the cancel; with JobTTL < 0 the next access
	// collects the terminal job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _ := get(t, ts.URL+"/v1/jobs/"+id)
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never collected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats().Jobs
	if st.Created != 1 || st.Cancelled != 1 || st.Collected != 1 || st.Live != 0 {
		t.Errorf("final job stats: %+v", st)
	}
}

// listJobs GETs the job listing.
func listJobs(t *testing.T, base string) []jobSnapshot {
	t.Helper()
	status, body := get(t, base+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list status %d: %s", status, body)
	}
	var listing struct {
		Jobs []jobSnapshot `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	return listing.Jobs
}

// TestJobRetentionBound finishes more jobs than the table keeps, 16 per
// live-job slot, well inside the TTL: the oldest are collected early, the
// listing holds the newest in creation order, and /stats counts the rest
// as collected.
func TestJobRetentionBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 2})
	const bound, extra = 2 * doneJobsPerSlot, 5
	ids := make([]string, bound+extra)
	for i := range ids {
		resp, data := post(t, ts.URL+"/v1/jobs", `{"compile": {"network": `+oneLayerNet(8)+`, "array": "64x64"}}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d: %s", i, resp.StatusCode, data)
		}
		ids[i] = jobResponse(t, data).ID
		pollJob(t, ts.URL+"/v1/jobs/"+ids[i], func(s jobSnapshot) bool { return s.State == stateDone })
	}
	jobs := listJobs(t, ts.URL)
	if len(jobs) != bound {
		t.Fatalf("listing holds %d jobs, want %d", len(jobs), bound)
	}
	for i, j := range jobs {
		if j.ID != ids[extra+i] {
			t.Fatalf("listing[%d] = %s, want %s (the newest, oldest first)", i, j.ID, ids[extra+i])
		}
	}
	for _, id := range ids[:extra] {
		if status, body := get(t, ts.URL+"/v1/jobs/"+id); status != http.StatusNotFound {
			t.Errorf("collected %s: status %d: %s", id, status, body)
		}
	}
	status, body := get(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var st struct {
		Jobs JobStats `json:"jobs"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if want := (JobStats{Created: bound + extra, Collected: extra}); st.Jobs != want {
		t.Errorf("job stats %+v, want %+v", st.Jobs, want)
	}
}

// TestJobTableRace polls one gated sweep job's detail and the listing while
// the sweep appends its results one cell at a time and other jobs finish
// and are collected past the retention bound (run under -race in CI). The
// detail's progress only grows, with one result per completed cell, and
// /stats counts exactly the jobs still queued or running as live.
func TestJobTableRace(t *testing.T) {
	gate := newGateSearcher()
	s, ts := newTestServer(t, Config{Searcher: gate, MaxConcurrent: 1, MaxJobs: 2})
	compileBody := `{"network": ` + oneLayerNet(8) + `, "array": "64x64"}`
	hit := `{"compile": ` + compileBody + `}`
	go gate.allow(1) // the one search behind every compile job below
	if resp, data := post(t, ts.URL+"/v1/compile", compileBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up compile: status %d: %s", resp.StatusCode, data)
	}
	arrays := []string{`"16x16"`, `"32x32"`, `"48x48"`, `"64x64"`, `"96x96"`, `"128x128"`}
	resp, data := post(t, ts.URL+"/v1/jobs", `{"sweep": {"networks": [`+oneLayerNet(10)+`], "arrays": [`+strings.Join(arrays, ", ")+`]}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep job: status %d: %s", resp.StatusCode, data)
	}
	sweepURL := ts.URL + "/v1/jobs/" + jobResponse(t, data).ID

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	defer func() {
		close(stop)
		pollers.Wait()
	}()
	poll := func(url string, check func([]byte)) {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d, %v", url, resp.StatusCode, err)
					return
				}
				check(body)
			}
		}()
	}
	last := 0
	poll(sweepURL, func(body []byte) {
		var env struct{ Job jobSnapshot }
		if err := json.Unmarshal(body, &env); err != nil {
			t.Error(err)
			return
		}
		j := env.Job
		if j.CellsCompleted < last || len(j.Results) != j.CellsCompleted {
			t.Errorf("sweep snapshot went backwards or lost results: %d completed after %d, %d results", j.CellsCompleted, last, len(j.Results))
		}
		last = j.CellsCompleted
	})
	poll(ts.URL+"/v1/jobs", func(body []byte) {
		var listing struct{ Jobs []jobSnapshot }
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Error(err)
			return
		}
		if n := len(listing.Jobs); n > 2*doneJobsPerSlot+2 {
			t.Errorf("listing holds %d jobs, more than the bound allows", n)
		}
	})

	// 40 compile jobs, each a plan-cache hit, finish one after another and
	// push the oldest past the retention bound; every 8th lets one sweep
	// cell through the gate.
	for i := range 40 {
		resp, data := post(t, ts.URL+"/v1/jobs", hit)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d: %s", i, resp.StatusCode, data)
		}
		pollJob(t, ts.URL+"/v1/jobs/"+jobResponse(t, data).ID, func(s jobSnapshot) bool { return s.State == stateDone })
		if live := s.Stats().Jobs.Live; live != 1 {
			t.Errorf("after job %d finished: %d live jobs, want the sweep's 1", i, live)
		}
		if i%8 == 7 {
			gate.allow(1)
		}
	}
	gate.allow(len(arrays) - 5)
	final := pollJob(t, sweepURL, func(s jobSnapshot) bool { return s.State == stateDone })
	if final.CellsCompleted != len(arrays) || len(final.Results) != len(arrays) {
		t.Errorf("final sweep snapshot: %d completed, %d results, want %d", final.CellsCompleted, len(final.Results), len(arrays))
	}
	if st := s.Stats().Jobs; st.Live != 0 || st.Created != 41 || st.Collected != 41-2*doneJobsPerSlot {
		t.Errorf("final job stats %+v", st)
	}
}
