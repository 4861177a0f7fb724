package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/optimize"
)

// testSpace is a small two-layer design space: 2 arrays × 2 chip counts ×
// 2 peripheral models = 8 design points, with gating [false, true]
// guaranteeing dominated points (an ungated point is strictly dominated by
// its gated twin).
const testSpace = `{
  "name": "t-space",
  "network": {"name": "T", "layers": [
    {"name": "c1", "iw": 16, "ih": 16, "kw": 3, "kh": 3, "ic": 3, "oc": 8},
    {"name": "c2", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 8, "oc": 16}
  ]},
  "arrays": ["64x64", "128x128"],
  "chips": [1, 2],
  "gating": [false, true]
}`

// decodeOptimizeStream splits an NDJSON optimize response into its event
// lines and the final frontier.
func decodeOptimizeStream(t *testing.T, body []byte) ([]optimize.Event, *optimize.Frontier) {
	t.Helper()
	var events []optimize.Event
	var frontier *optimize.Frontier
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch kind.Event {
		case "frontier":
			if frontier != nil {
				t.Fatal("two frontier lines in one stream")
			}
			var fin struct {
				Frontier *optimize.Frontier `json:"frontier"`
			}
			if err := json.Unmarshal(line, &fin); err != nil {
				t.Fatal(err)
			}
			frontier = fin.Frontier
		case "admit", "evict", "reject":
			if frontier != nil {
				t.Fatal("event line after the frontier line")
			}
			var e optimize.Event
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatal(err)
			}
			events = append(events, e)
		default:
			t.Fatalf("unknown stream event %q", kind.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events, frontier
}

// TestOptimizeStreamsNDJSON is the endpoint acceptance test: the stream
// carries one event per frontier decision, ends with the full frontier, the
// frontier matches a direct optimize.Run byte-for-byte, contains only
// non-dominated points, and the run shows up on /stats and /metrics.
func TestOptimizeStreamsNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/optimize", testSpace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	events, f := decodeOptimizeStream(t, body)
	if f == nil {
		t.Fatal("stream has no frontier line")
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("streamed frontier invalid: %v", err)
	}
	if f.Evaluated != 8 || len(f.Points) < 1 || f.Dominated < 1 {
		t.Fatalf("unexpected frontier shape: evaluated=%d points=%d dominated=%d",
			f.Evaluated, len(f.Points), f.Dominated)
	}
	if len(events) != f.Admitted+f.Evicted+f.Rejected {
		t.Fatalf("%d event lines for %d frontier decisions",
			len(events), f.Admitted+f.Evicted+f.Rejected)
	}

	// The streamed frontier equals a direct library run on the same spec.
	space, err := optimize.FromJSON([]byte(testSpace))
	if err != nil {
		t.Fatal(err)
	}
	want, err := optimize.New(nil).Run(context.Background(), space, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := f.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("streamed frontier differs from direct run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// Counters: /stats and /metrics both report the run.
	st := s.Stats()
	if st.Optimize.Runs != 1 || st.Optimize.PointsEvaluated != uint64(f.Evaluated) {
		t.Fatalf("optimize stats %+v", st.Optimize)
	}
	if st.Optimize.Admitted != uint64(f.Admitted) || st.Optimize.Evicted != uint64(f.Evicted) ||
		st.Optimize.Rejected != uint64(f.Rejected) {
		t.Fatalf("optimize stats %+v vs frontier %+v", st.Optimize, f)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, name := range []string{
		"vwsdk_optimize_runs_total 1",
		"vwsdk_optimize_points_evaluated_total 8",
		"vwsdk_optimize_points_dominated_total",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metrics exposition missing %q", name)
		}
	}
}

func TestOptimizeErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"trailing bracket", `{"network": "VGG-13", "arrays": ["64x64"]}]`, http.StatusBadRequest},
		{"no network", `{"arrays": ["64x64"]}`, http.StatusUnprocessableEntity},
		{"no arrays", `{"network": "VGG-13"}`, http.StatusUnprocessableEntity},
		{"empty arrays axis", `{"network": "VGG-13", "arrays": []}`, http.StatusUnprocessableEntity},
		{"bad array", `{"network": "VGG-13", "arrays": ["sixtyfour"]}`, http.StatusUnprocessableEntity},
		{"bad chips", `{"network": "VGG-13", "arrays": ["64x64"], "chips": [0]}`, http.StatusUnprocessableEntity},
		{"chips over the limit", `{"network": "VGG-13", "arrays": ["64x64"], "chips": [1048577]}`, http.StatusUnprocessableEntity},
		{"unknown network", `{"network": "NoSuchNet", "arrays": ["64x64"]}`, http.StatusUnprocessableEntity},
		{"groups exceed layers", `{"network": "VGG-13", "arrays": ["64x64"], "layer_groups": 11}`, http.StatusUnprocessableEntity},
		{"point explosion", `{"network": "VGG-13", "arrays": ["1x1","2x2","4x4","8x8","16x16","32x32","64x64","128x128"], "layer_groups": 5}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/optimize", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var e struct {
			Error struct {
				Status  int    `json:"status"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Status != tc.status {
			t.Errorf("%s: unstructured error body %s", tc.name, body)
		}
	}
	resp, _ := http.Get(ts.URL + "/v1/optimize")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize = %d, want 405", resp.StatusCode)
	}
}

func TestOptimizeCapacity503(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	// Occupy the one sweep/optimize stream slot.
	s.sweepSem <- struct{}{}
	defer func() { <-s.sweepSem }()
	resp, body := post(t, ts.URL+"/v1/optimize", testSpace)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestOptimizeJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"optimize": `+testSpace+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var created struct {
		Job struct {
			ID         string `json:"id"`
			Kind       string `json:"kind"`
			CellsTotal int    `json:"cells_total"`
		} `json:"job"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Job.Kind != "optimize" || created.Job.CellsTotal != 8 {
		t.Fatalf("created job %+v", created.Job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("optimize job did not finish")
		}
		status, detail := get(t, ts.URL+"/v1/jobs/"+created.Job.ID)
		if status != http.StatusOK {
			t.Fatalf("job get status %d: %s", status, detail)
		}
		var snap struct {
			Job struct {
				State          string          `json:"state"`
				Error          string          `json:"error"`
				CellsCompleted int             `json:"cells_completed"`
				Frontier       json.RawMessage `json:"frontier"`
			} `json:"job"`
		}
		if err := json.Unmarshal(detail, &snap); err != nil {
			t.Fatal(err)
		}
		switch snap.Job.State {
		case "done":
			if snap.Job.CellsCompleted != 8 {
				t.Fatalf("done job completed %d of 8", snap.Job.CellsCompleted)
			}
			f, err := optimize.FromJSONFrontier(snap.Job.Frontier)
			if err != nil {
				t.Fatalf("job frontier invalid: %v\n%s", err, snap.Job.Frontier)
			}
			if f.Evaluated != 8 || len(f.Points) < 1 || f.Dominated < 1 {
				t.Fatalf("job frontier shape: %+v", f)
			}
			return
		case "failed", "cancelled":
			t.Fatalf("job ended %s: %s", snap.Job.State, snap.Job.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOptimizeJobValidationEager mirrors the sweep job behavior: a bad space
// is a 422 at submission, not a failed job.
func TestOptimizeJobValidationEager(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"optimize": {"network": "NoSuchNet", "arrays": ["64x64"]}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/jobs", `{"optimize": `+testSpace+`, "sweep": {"networks": ["VGG-13"], "arrays": ["64x64"]}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("two-kind job: status %d: %s", resp.StatusCode, body)
	}
}

// TestOptimizeStreamBytes pins the whole /v1/optimize body to encoding/json:
// on the tinynet example space at 2 and 3 layer groups, the served bytes
// must equal json.Encoder's lines for a direct optimize.Run's events and its
// final frontier line.
func TestOptimizeStreamBytes(t *testing.T) {
	spec, err := os.ReadFile("../../examples/designspaces/tinynet.json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	for _, groups := range []int{2, 3} {
		body := bytes.Replace(spec, []byte(`"layer_groups": 1`), []byte(fmt.Sprintf(`"layer_groups": %d`, groups)), 1)
		space, err := optimize.FromJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		if space.Groups != groups {
			t.Fatalf("space has %d layer groups, want %d", space.Groups, groups)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		f, err := optimize.New(nil).Run(context.Background(), space, func(e optimize.Event) {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		final := struct {
			Kind     string             `json:"event"`
			Frontier *optimize.Frontier `json:"frontier"`
		}{"frontier", f}
		if err := enc.Encode(final); err != nil {
			t.Fatal(err)
		}
		resp, got := post(t, ts.URL+"/v1/optimize", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if bytes.Equal(got, want.Bytes()) {
			continue
		}
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range min(len(gotLines), len(wantLines)) {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("groups=%d: served line %d is\n%s\nencoding/json's line for a direct run is\n%s",
					groups, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("groups=%d: the served stream has %d lines, encoding/json's for a direct run %d",
			groups, len(gotLines), len(wantLines))
	}
}
