package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/model"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Version == "" {
		t.Errorf("healthz = %+v", hz)
	}
}

func TestNetworksListsZoo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/networks")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var list struct {
		Networks []struct {
			Name   string `json:"name"`
			Layers int    `json:"layers"`
			MACs   int64  `json:"macs"`
		} `json:"networks"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, n := range list.Networks {
		byName[n.Name] = n.Layers
		if n.MACs <= 0 {
			t.Errorf("%s: MACs %d", n.Name, n.MACs)
		}
	}
	if byName["VGG-13"] != 10 || byName["ResNet-18"] != 5 {
		t.Errorf("zoo listing wrong: %v", byName)
	}
	if byName["MobileNet-V2"] == 0 || byName["ResNeXt-50"] == 0 {
		t.Errorf("grouped networks missing from zoo listing: %v", byName)
	}
}

// TestCompileMatchesDirectAndGolden is the acceptance differential: the
// /v1/compile response for VGG-13 on 512×512 must be byte-identical to the
// compact encoding of compile.Compile called directly, and semantically
// identical (through the canonical indented serialization) to the committed
// golden plan from the pipeline's own test suite.
func TestCompileMatchesDirectAndGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compile", `{"network": "VGG-13", "array": "512x512"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	direct, err := compile.New(core.Serial{}).Compile(context.Background(),
		compile.NewRequest(model.VGG13(), core.Array{Rows: 512, Cols: 512}, compile.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("served plan differs from compile.Compile compact bytes")
	}

	// The served body re-validates and, re-serialized canonically, still
	// matches the committed golden file byte for byte.
	served, err := compile.FromJSON(body)
	if err != nil {
		t.Fatalf("served plan does not re-validate: %v", err)
	}
	replayed, err := served.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../compile/testdata/vgg13_512_plan.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, golden) {
		t.Error("served plan differs from the committed golden file")
	}

	// A second identical request is a plan-cache hit with the same bytes.
	resp2, body2 := post(t, ts.URL+"/v1/compile", `{"network": "VGG-13", "array": "512x512"}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached plan bytes differ")
	}
}

// TestCompileInlineSpec posts an inline network spec (the example file) and
// re-validates the response totals through compile.FromJSON.
func TestCompileInlineSpec(t *testing.T) {
	spec, err := os.ReadFile("../../examples/networks/tinynet.json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	req := fmt.Sprintf(`{"network": %s, "array": {"rows": 256, "cols": 256}, "options": {"arrays": 4}}`, spec)
	resp, body := post(t, ts.URL+"/v1/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	p, err := compile.FromJSON(body)
	if err != nil {
		t.Fatalf("response does not re-validate: %v", err)
	}
	if p.Network.Name != "TinyNet" || p.Options.Arrays != 4 || p.Totals.Cycles <= 0 {
		t.Errorf("plan = %s arrays=%d cycles=%d", p.Network.Name, p.Options.Arrays, p.Totals.Cycles)
	}
	if p.Totals.Speedup < 1 {
		t.Errorf("speedup %v < 1", p.Totals.Speedup)
	}
}

// TestCompileGrouped serves grouped convolutions end-to-end: the MobileNet-V2
// zoo entry and the grouped example spec both compile over /v1/compile, the
// response re-validates, and the depthwise layers keep their group structure
// in the returned plan.
func TestCompileGrouped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compile", `{"network": "MobileNet-V2", "array": "512x512"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	p, err := compile.FromJSON(body)
	if err != nil {
		t.Fatalf("response does not re-validate: %v", err)
	}
	grouped := 0
	for _, lp := range p.Layers {
		if lp.Search.Best.Layer.NumGroups() > 1 {
			grouped++
		}
	}
	if grouped == 0 {
		t.Error("served MobileNet-V2 plan has no grouped layers")
	}
	if p.Totals.Speedup < 1 {
		t.Errorf("speedup %v < 1", p.Totals.Speedup)
	}

	spec, err := os.ReadFile("../../examples/networks/mobile.json")
	if err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf(`{"network": %s, "array": "256x256"}`, spec)
	resp, body = post(t, ts.URL+"/v1/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline grouped spec: status %d: %s", resp.StatusCode, body)
	}
	if p, err = compile.FromJSON(body); err != nil || p.Network.Name != "MobileTiny" {
		t.Fatalf("inline grouped spec response: %v %q", err, p.Network.Name)
	}
}

// TestCompileCoalescing is the acceptance concurrency test: N identical
// concurrent requests perform exactly one underlying search, asserted via
// the engine's own counters, and all clients get the same bytes.
func TestCompileCoalescing(t *testing.T) {
	eng := engine.New()
	s, ts := newTestServer(t, Config{Engine: eng})
	const clients = 16
	req := `{"network": {"name": "one", "layers": [
	  {"name": "c", "iw": 56, "ih": 56, "kw": 3, "kh": 3, "ic": 128, "oc": 128}]},
	  "array": "512x512"}`

	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}

	if st := eng.Stats(); st.Searches != 1 || st.CacheMisses != 1 {
		t.Errorf("engine ran %d searches (%d misses), want exactly 1 for %d identical requests",
			st.Searches, st.CacheMisses, clients)
	}
	pc := s.Stats().PlanCache
	if pc.Misses != 1 {
		t.Errorf("plan cache misses = %d, want 1", pc.Misses)
	}
	if pc.Hits+pc.Misses < clients {
		t.Errorf("hits %d + misses %d < %d clients", pc.Hits, pc.Misses, clients)
	}
}

// TestCompileErrorPaths pins the structured error JSON and its status for
// every rejection class.
func TestCompileErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed JSON", `{"network": `, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"trailing garbage", `{"network": "VGG-13", "array": "64x64"} extra`, http.StatusBadRequest},
		{"trailing brace", `{"network": "VGG-13", "array": "64x64"}}`, http.StatusBadRequest},
		{"trailing bracket", `{"network": "VGG-13", "array": "64x64"} ]`, http.StatusBadRequest},
		{"missing network", `{"array": "64x64"}`, http.StatusUnprocessableEntity},
		{"unknown zoo name", `{"network": "LeNet-5", "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"network wrong type", `{"network": 42, "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"empty spec", `{"network": {"name": "t", "layers": []}, "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"spec with typo", `{"network": {"name": "t", "layers": [{"nom": "c"}]}, "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"missing array", `{"network": "VGG-13"}`, http.StatusUnprocessableEntity},
		{"zero array", `{"network": "VGG-13", "array": "0x0"}`, http.StatusUnprocessableEntity},
		{"array wrong type", `{"network": "VGG-13", "array": [512, 512]}`, http.StatusUnprocessableEntity},
		{"array unknown field", `{"network": "VGG-13", "array": {"rows": 8, "cols": 8, "banks": 2}}`, http.StatusUnprocessableEntity},
		{"bad scheme", `{"network": "VGG-13", "array": "64x64", "options": {"scheme": "magic"}}`, http.StatusUnprocessableEntity},
		{"bad variant", `{"network": "VGG-13", "array": "64x64", "options": {"variant": "magic"}}`, http.StatusUnprocessableEntity},
		{"negative arrays", `{"network": "VGG-13", "array": "64x64", "options": {"arrays": -2}}`, http.StatusUnprocessableEntity},
		{"negative groups", `{"network": {"name": "t", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 4, "groups": -1}]}, "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"ic not divisible by groups", `{"network": {"name": "t", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 5, "oc": 6, "groups": 3}]}, "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"oc not divisible by groups", `{"network": {"name": "t", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 6, "oc": 4, "groups": 3}]}, "array": "64x64"}`, http.StatusUnprocessableEntity},
		{"oversized body", `{"network": "` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/compile", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var e struct {
			Error struct {
				Status  int    `json:"status"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: error body not structured JSON: %v (%s)", tc.name, err, body)
			continue
		}
		if e.Error.Status != tc.status || e.Error.Message == "" {
			t.Errorf("%s: error payload %+v", tc.name, e.Error)
		}
	}

	// JSON whitespace after the body is not trailing data.
	if resp, body := post(t, ts.URL+"/v1/compile", "{\"network\": \"VGG-13\", \"array\": \"64x64\"} \t\r\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("body with a whitespace tail: status %d (%s)", resp.StatusCode, body)
	}

	// A bad scheme or variant is rejected with a message that lists the
	// canonical names.
	for opts, want := range map[string]string{
		`{"scheme": "magic"}`:  `unknown scheme "magic" (have vw, im2col, smd, sdk)`,
		`{"variant": "magic"}`: `unknown variant "magic" (have full, square-tiled, rect-full-channel)`,
	} {
		_, body := post(t, ts.URL+"/v1/compile", `{"network": "VGG-13", "array": "64x64", "options": `+opts+`}`)
		var e struct {
			Error struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Message != want {
			t.Errorf("options %s: message %q (%v), want %q", opts, e.Error.Message, err, want)
		}
	}

	// The grouped-spec rejection names the actual divisibility problem, so a
	// client can fix the spec without reading server logs.
	resp1, body1 := post(t, ts.URL+"/v1/compile",
		`{"network": {"name": "t", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 5, "oc": 6, "groups": 3}]}, "array": "64x64"}`)
	if resp1.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(string(body1), "input channels 5 not divisible by groups 3") {
		t.Errorf("grouped divisibility error not surfaced: %d %s", resp1.StatusCode, body1)
	}

	// Wrong methods are rejected by the mux method patterns.
	if status, _ := get(t, ts.URL+"/v1/compile"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile status %d", status)
	}
	resp, _ := post(t, ts.URL+"/healthz", "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz status %d", resp.StatusCode)
	}
	if status, _ := get(t, ts.URL+"/nope"); status != http.StatusNotFound {
		t.Errorf("GET /nope status %d", status)
	}
}

// TestSweepStreamsNDJSON drives /v1/sweep over a (2 networks × 2 arrays ×
// 2 variants) cross product, checks one well-formed summary line per cell,
// and that a repeated sweep is served from the plan cache.
func TestSweepStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{
	  "networks": ["ResNet-18", {"name": "t", "layers": [
	    {"name": "c", "iw": 14, "ih": 14, "kw": 3, "kh": 3, "ic": 64, "oc": 64}]}],
	  "arrays": ["256x256", {"rows": 512, "cols": 512}],
	  "variants": ["full", "square-tiled"]
	}`
	sweep := func() []sweepSummary {
		resp, body := post(t, ts.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		out := make([]sweepSummary, len(lines))
		for i, line := range lines {
			if err := json.Unmarshal(line, &out[i]); err != nil {
				t.Fatalf("line %d not JSON: %v (%s)", i, err, line)
			}
		}
		return out
	}

	sums := sweep()
	if len(sums) != 8 {
		t.Fatalf("got %d lines, want 8", len(sums))
	}
	seen := map[string]bool{}
	for _, sum := range sums {
		if sum.Error != "" {
			t.Errorf("%s/%s/%s: error %q", sum.Network, sum.Array, sum.Variant, sum.Error)
			continue
		}
		if sum.Cycles <= 0 || sum.Im2colCycles < sum.Cycles || sum.Makespan <= 0 || sum.EnergyTotalJ <= 0 {
			t.Errorf("%s/%s/%s: implausible totals %+v", sum.Network, sum.Array, sum.Variant, sum)
		}
		seen[sum.Network+"/"+sum.Array+"/"+sum.Variant] = true
	}
	if len(seen) != 8 {
		t.Errorf("distinct cells = %d, want 8: %v", len(seen), seen)
	}

	// The identical sweep again: every cell is a cached plan.
	for _, sum := range sweep() {
		if !sum.Cached {
			t.Errorf("%s/%s/%s not served from cache on repeat", sum.Network, sum.Array, sum.Variant)
		}
	}

}

// TestSweepOptionsVariantApplies pins that options.variant is honored when
// no variants list is given, instead of being silently clobbered by the
// full-search default.
func TestSweepOptionsVariantApplies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"networks": [{"name": "t", "layers": [
	  {"name": "c", "iw": 14, "ih": 14, "kw": 3, "kh": 3, "ic": 64, "oc": 64}]}],
	  "arrays": ["256x256"], "options": {"variant": "square-tiled"}}`
	resp, body := post(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sum sweepSummary
	if err := json.Unmarshal(bytes.TrimSpace(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Error != "" || sum.Variant != "square-tiled" {
		t.Fatalf("summary %+v, want the square-tiled cell", sum)
	}
	// The ablation must actually have run: its cell matches a direct
	// square-tiled compile, not the full search.
	direct, err := compile.New(core.Serial{}).Compile(context.Background(), compile.NewRequest(
		model.Single(core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}),
		core.Array{Rows: 256, Cols: 256},
		compile.Options{Variant: core.VariantSquareTiled}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != direct.Totals.Cycles {
		t.Errorf("cycles %d, want the ablation's %d", sum.Cycles, direct.Totals.Cycles)
	}
}

// TestPlanCacheLeaderErrorNotShared pins that a joiner coalesced onto a
// flight whose leader fails (e.g. the leader's client hung up) runs its own
// compute instead of inheriting the leader's private error.
func TestPlanCacheLeaderErrorNotShared(t *testing.T) {
	c := New(Config{PlanCacheSize: 4}).plans
	leaderIn := make(chan struct{})
	joinerJoined := make(chan struct{})
	leaderErr := fmt.Errorf("leader's client hung up")

	type outcome struct {
		entry *planEntry
		hit   bool
		err   error
	}
	leaderDone := make(chan outcome, 1)
	go func() {
		e, out, err := c.Do(context.Background(), "k", func() (*planEntry, error) {
			close(leaderIn)
			<-joinerJoined
			return nil, leaderErr
		})
		leaderDone <- outcome{*e, out != memo.Computed, err}
	}()

	<-leaderIn
	joinerDone := make(chan outcome, 1)
	go func() {
		e, out, err := c.Do(context.Background(), "k", func() (*planEntry, error) {
			return &planEntry{plan: &compile.NetworkPlan{}, data: []byte("joiner bytes")}, nil
		})
		joinerDone <- outcome{*e, out != memo.Computed, err}
	}()
	// The joiner is coalesced once the dedupe counter moves; only then may
	// the leader fail.
	for c.Stats().Dedupes == 0 {
		time.Sleep(time.Millisecond)
	}
	close(joinerJoined)

	if got := <-leaderDone; got.err != leaderErr {
		t.Fatalf("leader err = %v, want its own error", got.err)
	}
	got := <-joinerDone
	if got.err != nil {
		t.Fatalf("joiner inherited an error: %v", got.err)
	}
	if got.hit || string(got.entry.data) != "joiner bytes" {
		t.Fatalf("joiner outcome %+v, want its own computed entry", got)
	}
	// The joiner's successful retry is cached for later requests.
	if e, out, err := c.Do(context.Background(), "k", func() (*planEntry, error) {
		t.Fatal("cached key recomputed")
		return nil, nil
	}); err != nil || out != memo.Hit || string((*e).data) != "joiner bytes" {
		t.Fatalf("follow-up not served from cache: outcome=%v err=%v", out, err)
	}
}

// TestSweepCellOutcomes pins the per-cell contract on both failure classes:
// a cancelled context makes the cell incomplete (an error return, nothing to
// emit — the stream carries only completed cells), while an uncompilable
// cell folds its error into the summary line instead of tearing down the
// stream.
func TestSweepCellOutcomes(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // keep every slot busy so the cell must wait
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	cell := sweepCell{req: compile.NewRequest(
		model.Single(core.Layer{Name: "c", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 4}),
		core.Array{Rows: 64, Cols: 64}, compile.Options{})}
	if _, err := s.runCell(ctx, cell); err == nil {
		t.Fatal("cancelled cell returned no error")
	}
	s.release()

	// An uncompilable cell (kernel larger than the IFM fails validation
	// inside the search) is a summary-level error, not a stream abort.
	huge := core.Layer{Name: "huge", IW: 8, IH: 8, KW: 16, KH: 16, IC: 1, OC: 1}
	bad := sweepCell{req: compile.NewRequest(
		model.Network{Name: "bad", Layers: []model.ConvLayer{{Layer: huge, Count: 1}}},
		core.Array{Rows: 8, Cols: 8}, compile.Options{})}
	sum, err := s.runCell(context.Background(), bad)
	if err != nil {
		t.Fatalf("per-cell failure escalated to a stream error: %v", err)
	}
	if sum.Error == "" {
		t.Fatal("uncompilable cell reported no error")
	}
	if sum.Network != "bad" || sum.Array != "8x8" {
		t.Errorf("error summary lost the cell identity: %+v", sum)
	}
}

// TestSweepErrorPaths pins that reference errors surface as one structured
// 422 before the stream commits to a 200.
func TestSweepErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"no networks":  `{"arrays": ["64x64"]}`,
		"no arrays":    `{"networks": ["VGG-13"]}`,
		"bad network":  `{"networks": ["LeNet-5"], "arrays": ["64x64"]}`,
		"bad array":    `{"networks": ["VGG-13"], "arrays": ["64xTall"]}`,
		"bad variant":  `{"networks": ["VGG-13"], "arrays": ["64x64"], "variants": ["magic"]}`,
		"bad options":  `{"networks": ["VGG-13"], "arrays": ["64x64"], "options": {"scheme": "magic"}}`,
		"unknown knob": `{"networks": ["VGG-13"], "arrays": ["64x64"], "cells": 3}`,
	} {
		resp, data := post(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusUnprocessableEntity && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, resp.StatusCode, data)
		}
	}
}

// TestStatsEndpoint checks /stats reflects engine counters, plan-cache
// counters (including evictions with a capacity-1 cache) and server
// request counts.
func TestStatsEndpoint(t *testing.T) {
	eng := engine.New(engine.WithCacheSize(1))
	_, ts := newTestServer(t, Config{Engine: eng, PlanCacheSize: 1})
	// Two distinct compiles through a capacity-1 plan cache (and a
	// capacity-1 engine cache with two distinct layer shapes) force
	// evictions at both levels.
	for _, req := range []string{
		`{"network": {"name": "a", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 4}]}, "array": "64x64"}`,
		`{"network": {"name": "b", "layers": [{"name": "c", "iw": 10, "ih": 10, "kw": 3, "kh": 3, "ic": 4, "oc": 4}]}, "array": "64x64"}`,
	} {
		if resp, body := post(t, ts.URL+"/v1/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	status, body := get(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", st.Server.Requests)
	}
	if st.PlanCache.Misses != 2 || st.PlanCache.Entries != 1 || st.PlanCache.Evictions != 1 {
		t.Errorf("plan cache stats %+v, want 2 misses, 1 entry, 1 eviction", st.PlanCache)
	}
	if st.Engine.Searches != 2 || st.Engine.CacheMisses != 2 || st.Engine.Evictions != 1 {
		t.Errorf("engine stats %+v, want 2 searches/misses and 1 eviction", st.Engine)
	}
	if st.Engine.CandidatesCosted == 0 || st.Engine.CandidatesPruned == 0 {
		t.Errorf("engine stats %+v, want non-zero candidates costed and pruned", st.Engine)
	}
	var n uint64
	for _, c := range st.Server.LatencyMs.Counts {
		n += c
	}
	if n < 2 {
		t.Errorf("latency histogram holds %d observations, want >= 2", n)
	}
	if len(st.Server.LatencyMs.Counts) != len(st.Server.LatencyMs.UpperBoundsMs)+1 {
		t.Errorf("histogram shape: %d counts for %d bounds",
			len(st.Server.LatencyMs.Counts), len(st.Server.LatencyMs.UpperBoundsMs))
	}
}

// TestBusyRejects pins the admission control: with one slot (taken) and no
// queue, a compile is rejected with 503 and counted, and succeeds once the
// slot frees.
func TestBusyRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	s.sem <- struct{}{} // occupy the only slot
	req := `{"network": {"name": "t", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 4}]}, "array": "64x64"}`
	resp, body := post(t, ts.URL+"/v1/compile", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if got := s.Stats().Server.Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	s.release()
	if resp, body := post(t, ts.URL+"/v1/compile", req); resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d: %s", resp.StatusCode, body)
	}
}

// TestSweepBusyRejects pins the sweep admission control: with every sweep
// stream taken, a new sweep gets 503 instead of parking goroutines, and is
// admitted again once a stream frees.
func TestSweepBusyRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	req := `{"networks": ["ResNet-18"], "arrays": ["64x64"]}`
	s.sweepSem <- struct{}{} // occupy the only sweep stream
	resp, body := post(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if got := s.Stats().Server.Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	<-s.sweepSem
	if resp, body := post(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d: %s", resp.StatusCode, body)
	}
}

// TestAccessLog checks the configured logger receives one line per request
// with method, path and status.
func TestAccessLog(t *testing.T) {
	var buf syncWriter
	_, ts := newTestServer(t, Config{Logger: log.New(&buf, "", 0)})
	get(t, ts.URL+"/healthz")
	got := buf.String()
	if !strings.Contains(got, "GET /healthz 200") {
		t.Errorf("access log missing request line:\n%s", got)
	}
}

// syncWriter is a goroutine-safe strings.Builder for log assertions.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestWireOptionsRoundTrip pins the peer hop's option encoding against the
// parser: every scheme, variant, chip count and gating bit survives
// wireOptions then compileOptions, defaults collapse to no options at all,
// and an out-of-range scheme or variant is written as a name the parser
// rejects instead of the default.
func TestWireOptionsRoundTrip(t *testing.T) {
	for _, s := range []compile.Scheme{compile.VWSDK, compile.Im2col, compile.SMD, compile.SDK} {
		for _, v := range []core.Variant{core.VariantFull, core.VariantSquareTiled, core.VariantRectFullChannel} {
			for _, opts := range []compile.Options{
				{Scheme: s, Variant: v},
				{Scheme: s, Variant: v, Arrays: 4, GatePeripherals: true},
			} {
				got, herr := wireOptions(opts).compileOptions()
				if herr != nil || got != opts {
					t.Errorf("%+v: round trip gave %+v, %v", opts, got, herr)
				}
			}
		}
	}
	if o := wireOptions(compile.Options{}); o != nil {
		t.Errorf("default options wired as %+v, want nil", o)
	}
	for _, opts := range []compile.Options{{Scheme: compile.Scheme(9)}, {Variant: core.Variant(-1)}} {
		if _, herr := wireOptions(opts).compileOptions(); herr == nil || herr.status != http.StatusUnprocessableEntity {
			t.Errorf("%+v: wired options accepted (%v)", opts, herr)
		}
	}
}
