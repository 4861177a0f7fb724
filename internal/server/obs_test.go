package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// TestMetricsExposition drives traffic through every counted subsystem
// (compile, jobs, an error) and checks the scrape is valid Prometheus text
// exposition carrying the stable metric-name contract from DESIGN.md §9.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts.URL+"/v1/compile", `{"network": "VGG-13", "array": "512x512"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
	}
	post(t, ts.URL+"/v1/compile", `not json`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	obstest.CheckExposition(t, body)

	for _, want := range []string{
		"vwsdk_build_info{",
		"vwsdk_uptime_seconds ",
		"vwsdk_http_requests_total ",
		"vwsdk_http_request_duration_seconds_bucket{",
		"vwsdk_plan_cache_misses_total ",
		"vwsdk_engine_searches_total ",
		"vwsdk_jobs_live ",
		`vwsdk_compile_phase_seconds_bucket{phase="search",`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The compile above must have moved the request counter and the search
	// phase histogram.
	if !scrapeValueAtLeast(t, body, "vwsdk_http_requests_total", 2) {
		t.Errorf("vwsdk_http_requests_total did not count the requests:\n%s", grepPrefix(body, "vwsdk_http_requests_total"))
	}
	if !scrapeValueAtLeast(t, body, `vwsdk_compile_phase_seconds_count{phase="search"}`, 1) {
		t.Errorf("search phase histogram empty:\n%s", grepPrefix(body, "vwsdk_compile_phase_seconds_count"))
	}
}

// scrapeValueAtLeast reports whether the sample named name (exact, including
// any label set) is present with a value >= min.
func scrapeValueAtLeast(t *testing.T, body, name string, min float64) bool {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v >= min
	}
	return false
}

func grepPrefix(body, prefix string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsScrapeRace races /metrics and /stats scrapes against live
// compiles and the job lifecycle (create, query, GC with an immediate TTL),
// so `go test -race` patrols the whole sample-at-scrape surface. Every
// scrape must still be a valid exposition.
func TestMetricsScrapeRace(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: time.Millisecond})

	arrays := []string{"128x128", "256x256", "512x512", "1024x1024"}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"network": "VGG-13", "array": "%s"}`, arrays[(g+i)%len(arrays)])
				if resp, b := post(t, ts.URL+"/v1/compile", body); resp.StatusCode != http.StatusOK {
					t.Errorf("compile: status %d: %s", resp.StatusCode, b)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				status, body := get(t, ts.URL+"/metrics")
				if status != http.StatusOK {
					t.Errorf("/metrics status %d", status)
					return
				}
				obstest.CheckExposition(t, string(body))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if status, body := get(t, ts.URL+"/stats"); status != http.StatusOK {
					t.Errorf("/stats status %d: %s", status, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			resp, body := post(t, ts.URL+"/v1/jobs", `{"sweep": {"networks": ["VGG-13"], "arrays": ["128x128"]}}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job create: status %d: %s", resp.StatusCode, body)
				return
			}
			var job struct {
				Job struct {
					ID string `json:"id"`
				} `json:"job"`
			}
			if err := json.Unmarshal(body, &job); err != nil {
				t.Error(err)
				return
			}
			get(t, ts.URL+"/v1/jobs/"+job.Job.ID)
			time.Sleep(2 * time.Millisecond) // let the TTL GC race the scrapes
		}
	}()
	wg.Wait()
}

// parseServerTiming decodes a Server-Timing header into name → milliseconds.
func parseServerTiming(t *testing.T, header string) map[string]float64 {
	t.Helper()
	if header == "" {
		t.Fatal("no Server-Timing header")
	}
	out := map[string]float64{}
	for _, part := range strings.Split(header, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			t.Fatalf("bad Server-Timing entry %q in %q", part, header)
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			t.Fatalf("bad Server-Timing duration %q: %v", part, err)
		}
		out[name] = v
	}
	return out
}

// TestCompileTraceDebug exercises ?trace=1 end to end, cold then warm: the
// response must carry the request span tree and the compile provenance, and
// the request phases must sum to no more than the Server-Timing total
// (phases are sequential inside the request). The provenance is rendered
// from the entry's finished trace on each request, so the cold answer and
// every hit, concurrent hits included, carry the same compile_trace bytes;
// a span still open when the entry was stored would render a longer
// duration each time.
func TestCompileTraceDebug(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"network": "VGG-13", "array": "512x512"}`

	var rawTraces [][]byte
	for round, wantCached := range []bool{false, true} {
		resp, data := post(t, ts.URL+"/v1/compile?trace=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, data)
		}
		var tr struct {
			RequestID    string          `json:"request_id"`
			Cached       bool            `json:"cached"`
			Plan         json.RawMessage `json:"plan"`
			Trace        []*obs.Node     `json:"trace"`
			CompileTrace []*obs.Node     `json:"compile_trace"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rawTraces = append(rawTraces, compileTraceBytes(t, data))
		if tr.Cached != wantCached {
			t.Errorf("round %d: cached = %v, want %v", round, tr.Cached, wantCached)
		}
		if tr.RequestID == "" || tr.RequestID != resp.Header.Get("X-Request-Id") {
			t.Errorf("round %d: request_id %q vs header %q", round, tr.RequestID, resp.Header.Get("X-Request-Id"))
		}
		if len(tr.Plan) == 0 {
			t.Errorf("round %d: no plan attached", round)
		}

		// The request tree always has decode and lookup; the handler span
		// only exists when the compilation actually ran.
		if obs.Find(tr.Trace, "decode") == nil || obs.Find(tr.Trace, "lookup") == nil {
			t.Errorf("round %d: request tree missing decode/lookup: %+v", round, tr.Trace)
		}
		if got := obs.Find(tr.Trace, "handler") != nil; got == wantCached {
			t.Errorf("round %d: handler span present = %v with cached = %v", round, got, wantCached)
		}

		// Both rounds carry the cold compile's provenance: queue-wait, the
		// compile tree (with per-layer search spans), and plan encoding.
		for _, name := range []string{"queue-wait", "compile", "encode"} {
			if obs.Find(tr.CompileTrace, name) == nil {
				t.Errorf("round %d: compile provenance missing %q", round, name)
			}
		}
		if comp := obs.Find(tr.CompileTrace, "compile"); comp != nil {
			if obs.Find(comp.Children, "layer") == nil {
				t.Errorf("round %d: compile tree has no layer spans", round)
			} else if obs.Find(obs.Find(comp.Children, "layer").Children, "search") == nil {
				t.Errorf("round %d: layer span has no search child", round)
			}
		}

		// Acceptance: the span phases sum to within the request total.
		st := parseServerTiming(t, resp.Header.Get("Server-Timing"))
		total, ok := st["total"]
		if !ok {
			t.Fatalf("round %d: Server-Timing lacks total: %v", round, st)
		}
		var sum float64
		for name, v := range st {
			if name != "total" {
				sum += v
			}
		}
		if sum > total+0.05 { // 0.05ms slack for the two timestamps' rounding
			t.Errorf("round %d: phase sum %.2fms > total %.2fms (%v)", round, sum, total, st)
		}
	}
	if !bytes.Equal(rawTraces[0], rawTraces[1]) {
		t.Errorf("hit's compile_trace differs from the cold answer's:\ncold %s\nhit  %s", rawTraces[0], rawTraces[1])
	}

	// Concurrent hits render the one stored trace at once.
	const hits = 8
	got := make([][]byte, hits)
	var wg sync.WaitGroup
	for i := range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw := httptest.NewRecorder()
			s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/compile?trace=1", strings.NewReader(body)))
			if rw.Code != http.StatusOK {
				t.Errorf("concurrent hit %d: status %d: %s", i, rw.Code, rw.Body.Bytes())
				return
			}
			got[i] = compileTraceBytes(t, rw.Body.Bytes())
		}()
	}
	wg.Wait()
	for i, raw := range got {
		if raw != nil && !bytes.Equal(raw, rawTraces[0]) {
			t.Errorf("concurrent hit %d rendered a different compile_trace:\n%s\nwant %s", i, raw, rawTraces[0])
		}
	}
}

// compileTraceBytes returns the compile_trace member of a ?trace=1 answer
// exactly as it was written.
func compileTraceBytes(t *testing.T, answer []byte) []byte {
	t.Helper()
	var raw struct {
		CompileTrace json.RawMessage `json:"compile_trace"`
	}
	if err := json.Unmarshal(answer, &raw); err != nil {
		t.Errorf("?trace=1 answer: %v", err)
		return nil
	}
	if len(raw.CompileTrace) == 0 {
		t.Errorf("?trace=1 answer has no compile_trace")
	}
	return raw.CompileTrace
}

// TestServerTimingColdOnly pins the warm-path contract: a cold /v1/compile
// carries Server-Timing built from the compile provenance, while the warm
// zero-alloc fast path deliberately omits the header.
func TestServerTimingColdOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"network": "VGG-13", "array": "256x256"}`

	resp, data := post(t, ts.URL+"/v1/compile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	st := parseServerTiming(t, resp.Header.Get("Server-Timing"))
	for _, name := range []string{"queue-wait", "compile", "encode", "total"} {
		if _, ok := st[name]; !ok {
			t.Errorf("cold Server-Timing missing %q: %v", name, st)
		}
	}

	resp, data = post(t, ts.URL+"/v1/compile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second compile not a cache hit")
	}
	if h := resp.Header.Get("Server-Timing"); h != "" {
		t.Errorf("warm fast path grew a Server-Timing header %q (check its alloc cost before keeping it)", h)
	}
}

// TestRequestID covers the X-Request-ID satellite: ids are generated when
// absent, echoed when the client's id is safe, replaced when it is not, and
// attached to structured error bodies.
func TestRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _ := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatal("healthz failed")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-Id"); rid == "" {
		t.Error("no X-Request-Id generated")
	}

	do := func(clientID string) string {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if clientID != "" {
			req.Header.Set("X-Request-Id", clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}
	if got := do("client-id-42"); got != "client-id-42" {
		t.Errorf("valid client id not echoed: %q", got)
	}
	if got := do("has spaces"); got == "has spaces" || got == "" {
		t.Errorf("unsafe client id echoed verbatim: %q", got)
	}
	if long := strings.Repeat("x", 200); do(long) == long {
		t.Error("over-long client id echoed verbatim")
	}

	// Errors carry the id too, so a support ticket can quote one string.
	resp, body := post(t, ts.URL+"/v1/compile", `{"network": "no-such-net", "array": "512x512"}`)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("expected an error response")
	}
	var e struct {
		Error struct {
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.RequestID == "" || e.Error.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("error request_id %q vs header %q", e.Error.RequestID, resp.Header.Get("X-Request-Id"))
	}
}

// TestAccessLogRequestID checks the access-log line leads with the request
// id, so one grep correlates a client report with the server's view.
func TestAccessLogRequestID(t *testing.T) {
	var buf syncWriter
	_, ts := newTestServer(t, Config{Logger: log.New(&buf, "", 0)})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "rid-log-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := buf.String(); !strings.Contains(got, "rid-log-probe GET /healthz 200") {
		t.Errorf("access log line not prefixed with the request id:\n%s", got)
	}
}

// TestStatsProcess checks the /stats process block added for fleet
// dashboards: uptime, goroutines, and build identity.
func TestStatsProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var st struct {
		Process struct {
			Version       string  `json:"version"`
			Revision      string  `json:"revision"`
			GoVersion     string  `json:"go_version"`
			UptimeSeconds float64 `json:"uptime_seconds"`
			Goroutines    int     `json:"goroutines"`
		} `json:"process"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	p := st.Process
	if p.Version == "" || p.Revision == "" || p.GoVersion == "" || p.UptimeSeconds < 0 || p.Goroutines <= 0 {
		t.Errorf("process stats incomplete: %+v", p)
	}
}
