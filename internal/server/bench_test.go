package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

const benchRequest = `{"network": "VGG-13", "array": "512x512"}`

func benchPost(b *testing.B, client *http.Client, url string) {
	b.Helper()
	resp, err := client.Post(url+"/v1/compile", "application/json", strings.NewReader(benchRequest))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServerCompile measures /v1/compile latency over real HTTP with
// parallel clients. "cold" disables both the plan cache and the engine's
// result cache, so every request pays the full VGG-13 search; "warm" is the
// default configuration primed by one request, so every request is a
// plan-cache byte hit — the amortization a long-lived daemon exists for.
func BenchmarkServerCompile(b *testing.B) {
	run := func(b *testing.B, cfg Config) {
		ts := httptest.NewServer(New(cfg))
		defer ts.Close()
		benchPost(b, ts.Client(), ts.URL) // prime (a no-op when caching is off)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchPost(b, ts.Client(), ts.URL)
			}
		})
	}
	b.Run("cold", func(b *testing.B) {
		run(b, Config{
			Engine:        engine.New(engine.WithCacheSize(0)),
			PlanCacheSize: -1,
		})
	})
	b.Run("warm", func(b *testing.B) {
		run(b, Config{})
	})
}

// BenchmarkSweepStream measures a warm 1-network × 3-array sweep stream.
func BenchmarkSweepStream(b *testing.B) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	req := `{"networks": ["ResNet-18"], "arrays": ["256x256", "512x512", "512x256"]}`
	for b.Loop() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; n != 3 {
			b.Fatal(fmt.Errorf("got %d lines", n))
		}
	}
}

// BenchmarkWarmOptimize times a warm POST /v1/optimize through ServeHTTP,
// with a writer that keeps the status and drops the body, over the five
// co-design spaces perfbench's codesign workload posts: ResNet-18, VGG-13,
// AlexNet, MobileNet-V2 and ResNeXt-50, each on arrays 128², 256² and
// 512² × chips 1 and 4 × both gating settings × 2 layer groups (36 points,
// 24 cell compiles). One untimed pass fills the engine, so every search
// is a hit; an op is one request, the spaces in turn. Profile the warm
// co-design path with -cpuprofile here.
func BenchmarkWarmOptimize(b *testing.B) {
	s := New(Config{})
	var bodies [][]byte
	for _, network := range []string{"ResNet-18", "VGG-13", "AlexNet", "MobileNet-V2", "ResNeXt-50"} {
		bodies = append(bodies, []byte(fmt.Sprintf(`{"name":"codesign-%s","network":%q,`+
			`"arrays":["128x128","256x256","512x512"],"chips":[1,4],"gating":[false,true],"layer_groups":2}`,
			network, network)))
	}
	rw := &statusWriter{header: http.Header{}}
	post := func(body []byte) {
		clear(rw.header)
		rw.status = 0
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		if rw.status != http.StatusOK {
			b.Fatalf("status %d", rw.status)
		}
	}
	for _, body := range bodies {
		post(body)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		post(bodies[i])
		i = (i + 1) % len(bodies)
	}
}
