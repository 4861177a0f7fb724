package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/peer"
	"repro/internal/store"
)

// The fleet tests cover the two-tier distributed cache: the persistent
// store (restart warm-up, corrupt-entry quarantine) and the peer tier
// (proxy-on-miss, one-hop, degradation, fleet-wide singleflight).

const tinyBody = `{"network": {"name": "tiny", "layers": [
	{"name": "c1", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 8}]},
	"array": "64x64"}`

func openStore(tb testing.TB, dir string) *store.Store {
	tb.Helper()
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestRestartComesUpWarmFromStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, ts := newTestServer(t, Config{Store: st})

	resp, first := post(t, ts.URL+"/v1/compile", tinyBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: %d: %s", resp.StatusCode, first)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("cold compile X-Cache = %q, want miss", xc)
	}
	st.Flush() // write-behind must land before the "restart"

	// A fresh server (new engine, new LRU) over the same store directory:
	// the same request must be a store hit — no search anywhere — with plan
	// bytes byte-identical to the pre-restart response.
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2})
	resp2, second := post(t, ts2.URL+"/v1/compile", tinyBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart compile: %d: %s", resp2.StatusCode, second)
	}
	if xc := resp2.Header.Get("X-Cache"); xc != "store" {
		t.Errorf("post-restart X-Cache = %q, want store", xc)
	}
	if !bytes.Equal(first, second) {
		t.Error("post-restart plan bytes differ from pre-restart response")
	}
	if searches := s2.Engine().Stats().Searches; searches != 0 {
		t.Errorf("restarted engine ran %d searches, want 0 (store hit must not search)", searches)
	}
	if hits := st2.StoreStats().Hits; hits != 1 {
		t.Errorf("store hits = %d, want 1", hits)
	}

	// The store hit is now in the LRU: a third request is a plain warm hit.
	resp3, _ := post(t, ts2.URL+"/v1/compile", tinyBody)
	if xc := resp3.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("third request X-Cache = %q, want hit", xc)
	}
}

func TestCorruptStoreEntryRecomputedNeverServed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, ts := newTestServer(t, Config{Store: st})
	resp, first := post(t, ts.URL+"/v1/compile", tinyBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: %d", resp.StatusCode)
	}
	st.Flush()

	// Truncate every stored entry on disk, then "restart".
	damaged := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
		return nil
	})
	if damaged != 1 {
		t.Fatalf("damaged %d entries, want 1", damaged)
	}

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2})
	resp2, second := post(t, ts2.URL+"/v1/compile", tinyBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("compile over corrupt store: %d: %s (must recompute, never 500)", resp2.StatusCode, second)
	}
	if xc := resp2.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("X-Cache = %q, want miss (recomputed)", xc)
	}
	if !bytes.Equal(first, second) {
		t.Error("recomputed plan differs from the original")
	}
	if s2.Engine().Stats().Searches == 0 {
		t.Error("no search ran — corrupt entry was served")
	}
	stats := st2.StoreStats()
	if stats.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", stats.Corrupt)
	}
	// The recompute's write-behind repairs the entry: the next restart is
	// warm again.
	st2.Flush()
	st3 := openStore(t, dir)
	if _, _, ok := st3.GetPlan(mustKeyFor(t, tinyBody)); !ok {
		t.Error("store not repaired by recompute")
	}
}

// mustKeyFor resolves a wire body the way the handler does and returns its
// compile key.
func mustKeyFor(t *testing.T, body string) string {
	t.Helper()
	var cr compileRequest
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatal(err)
	}
	req, herr := cr.resolve()
	if herr != nil {
		t.Fatal(herr.msg)
	}
	key, err := compile.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// newFleet builds n in-process servers, node-0:80 to node-<n−1>:80, wired
// into one consistent-hash fleet over the MemTransport it returns (no
// sockets), with per-node configs derived from base. The ring hashes the
// node names, so they decide which node owns each key.
func newFleet(tb testing.TB, n int, base func(i int) Config) ([]*Server, peer.MemTransport) {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d:80", i)
	}
	mt := peer.MemTransport{}
	servers := make([]*Server, n)
	for i := range servers {
		ring, err := peer.NewRing(addrs[i], addrs)
		if err != nil {
			tb.Fatal(err)
		}
		cfg := base(i)
		cfg.Peers = peer.NewClient(ring, mt, 0)
		servers[i] = New(cfg)
		mt[addrs[i]] = servers[i]
	}
	return servers, mt
}

// fleetPost drives one request through a fleet node's handler in-process.
func fleetPost(t *testing.T, s *Server, body string, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://fleet.test/v1/compile", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := (peer.MemTransport{"fleet.test": s}).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// ownerAndClient returns the index of the fleet node owning body's key and
// the index of some other node.
func ownerAndClient(t *testing.T, servers []*Server, body string) (owner, client int) {
	t.Helper()
	key := mustKeyFor(t, body)
	addr, _ := servers[0].peers.Ring().Owner(key)
	owner = -1
	for i, s := range servers {
		if s.peers.Ring().Self() == addr {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatalf("no fleet node owns %q", addr)
	}
	return owner, (owner + 1) % len(servers)
}

func TestPeerProxyOnMiss(t *testing.T) {
	servers, _ := newFleet(t, 3, func(int) Config { return Config{} })
	owner, client := ownerAndClient(t, servers, tinyBody)

	// A request to a non-owner is proxied: the owner runs the one search,
	// the client serves the owner's bytes marked X-Cache: peer.
	resp, body := fleetPost(t, servers[client], tinyBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied compile: %d: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "peer" {
		t.Errorf("X-Cache = %q, want peer", xc)
	}
	if got := servers[client].Engine().Stats().Searches; got != 0 {
		t.Errorf("client ran %d searches, want 0 (owner owns the compile)", got)
	}
	if got := servers[owner].Engine().Stats().Searches; got == 0 {
		t.Error("owner ran no searches")
	}
	if got := servers[client].peerProxied.Load(); got != 1 {
		t.Errorf("client peerProxied = %d, want 1", got)
	}

	// Same request to the owner: its LRU has it (filled by the hop).
	resp2, body2 := fleetPost(t, servers[owner], tinyBody, nil)
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("owner X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(body, body2) {
		t.Error("proxied and owner-served bytes differ")
	}

	// And the client's own LRU now has it too: no second proxy.
	resp3, _ := fleetPost(t, servers[client], tinyBody, nil)
	if xc := resp3.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("client second request X-Cache = %q, want hit", xc)
	}
	if got := servers[client].peerProxied.Load(); got != 1 {
		t.Errorf("client peerProxied after warm hit = %d, want still 1", got)
	}
}

func TestPeerHopNeverReproxied(t *testing.T) {
	// A node receiving an already-proxied request must answer locally even
	// when it does not own the key — one hop maximum, no cycles.
	servers, _ := newFleet(t, 3, func(int) Config { return Config{} })
	owner, client := ownerAndClient(t, servers, tinyBody)

	hdr := http.Header{}
	hdr.Set(peer.HopHeader, "test-sender")
	resp, body := fleetPost(t, servers[client], tinyBody, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hopped compile: %d: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("X-Cache = %q, want miss (local compute, not re-proxied)", xc)
	}
	if got := servers[client].Engine().Stats().Searches; got == 0 {
		t.Error("non-owner did not compute a hopped request locally")
	}
	if got := servers[owner].Engine().Stats().Searches; got != 0 {
		t.Errorf("owner ran %d searches for a request hopped elsewhere", got)
	}
}

func TestPeerDownDegradesToLocalCompute(t *testing.T) {
	// Two live nodes plus one address nobody answers; requests whose owner
	// is the dead node must still succeed via local compute.
	addrs := []string{"10.99.1.1:80", "10.99.1.2:80", "10.99.1.3:80"}
	mt := peer.MemTransport{}
	servers := make([]*Server, 2)
	for i := range servers {
		ring, err := peer.NewRing(addrs[i], addrs)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = New(Config{Peers: peer.NewClient(ring, mt, 0)})
		mt[addrs[i]] = servers[i]
	}
	// Find a request the dead node owns; distinct names give distinct keys.
	deadBody := ""
	for i := 0; i < 64; i++ {
		body := fmt.Sprintf(`{"network": {"name": "tiny-%d", "layers": [
			{"name": "c1", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 8}]},
			"array": "64x64"}`, i)
		addr, _ := servers[0].peers.Ring().Owner(mustKeyFor(t, body))
		if addr == addrs[2] {
			deadBody = body
			break
		}
	}
	if deadBody == "" {
		t.Fatal("no probe key owned by the dead node; widen the probe set")
	}
	resp, body := fleetPost(t, servers[0], deadBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile with dead owner: %d: %s (must degrade to local compute)", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("X-Cache = %q, want miss (degraded local compute)", xc)
	}
	if got := servers[0].peerFailed.Load(); got != 1 {
		t.Errorf("peerFailed = %d, want 1", got)
	}
	if got := servers[0].Engine().Stats().Searches; got == 0 {
		t.Error("no local search ran under degradation")
	}
}

// TestPeerReplyKeyChecked pins that a peer's reply is checked against the
// requested key, exactly like a store load: an owner answering every hop
// with a valid plan for a different request (AlexNet@64x64) must not have
// that plan served. The reply counts as a peer failure and the node
// compiles locally.
func TestPeerReplyKeyChecked(t *testing.T) {
	wrong, err := compile.New(engine.New()).Compile(context.Background(),
		compile.NewRequest(model.AlexNet(), core.Array{Rows: 64, Cols: 64}, compile.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var reply bytes.Buffer
	if err := wrong.Encode(&reply); err != nil {
		t.Fatal(err)
	}
	addrs := []string{"10.99.4.1:80", "10.99.4.2:80"}
	ring, err := peer.NewRing(addrs[0], addrs)
	if err != nil {
		t.Fatal(err)
	}
	liar := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(reply.Bytes()) })
	s := New(Config{Peers: peer.NewClient(ring, peer.MemTransport{addrs[1]: liar}, 0)})

	body, key, name := "", "", ""
	for i := 0; i < 64 && body == ""; i++ {
		n := fmt.Sprintf("tiny-%d", i)
		b := fmt.Sprintf(`{"network": {"name": %q, "layers": [
			{"name": "c1", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 8}]},
			"array": "64x64"}`, n)
		k := mustKeyFor(t, b)
		if addr, _ := ring.Owner(k); addr == addrs[1] {
			body, key, name = b, k, n
		}
	}
	if body == "" {
		t.Fatal("no probe key owned by the lying peer; widen the probe set")
	}
	resp, got := fleetPost(t, s, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("X-Cache = %q, want miss (wrong-key reply rejected, computed locally)", xc)
	}
	plan, err := compile.FromJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := compile.Key(plan.Request); err != nil || k != key {
		t.Errorf("served a plan for %s, not for the requested %s", plan.Request.Network.Name, name)
	}
	if failed, proxied := s.peerFailed.Load(), s.peerProxied.Load(); failed != 1 || proxied != 0 {
		t.Errorf("peer failed = %d, proxied = %d; want 1, 0", failed, proxied)
	}
}

func TestFleetSingleflightAcrossProxyHop(t *testing.T) {
	// A thundering herd of identical requests on a non-owner must collapse
	// to one proxy hop and one search on the owner: the local singleflight
	// coalesces the herd, and the owner's coalesces whatever leaks through.
	servers, _ := newFleet(t, 3, func(int) Config { return Config{} })
	owner, client := ownerAndClient(t, servers, tinyBody)

	const herd = 16
	var wg sync.WaitGroup
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := fleetPost(t, servers[client], tinyBody, nil)
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("herd request %d: status %d", i, c)
		}
	}
	if got := servers[owner].Engine().Stats().Searches; got == 0 {
		t.Error("owner ran no searches")
	}
	// Exactly one compilation fleet-wide: the owner compiled once (its
	// SearchStats counts per-layer searches, so compare plan-cache misses),
	// and the client never computed.
	if got := servers[owner].Stats().PlanCache.Misses; got != 1 {
		t.Errorf("owner plan-cache misses = %d, want 1 (herd must coalesce across the hop)", got)
	}
	if got := servers[client].Stats().PlanCache.Misses; got != 1 {
		t.Errorf("client plan-cache misses = %d, want 1 (one proxying leader)", got)
	}
	if got := servers[client].Engine().Stats().Searches; got != 0 {
		t.Errorf("client ran %d searches, want 0", got)
	}
	if got := servers[client].peerProxied.Load(); got != 1 {
		t.Errorf("client proxied %d times, want 1", got)
	}
}

// The zipf mix is the fleet tier's payoff workload: 600 compile requests
// over 24 keys, the six zoo networks on four square arrays, drawn by a
// seeded zipf (a few hot networks and a long tail) and sent round-robin to
// three nodes. Each plan cache holds 8 plans, far fewer than the keys, so
// one node alone thrashes its LRU, while in the fleet every key is compiled
// by its owner and served from caches and stores everywhere else.
var (
	zipfNetworks = []string{"VGG-13", "ResNet-18", "VGG-16", "AlexNet", "MobileNet-V2", "ResNeXt-50"}
	zipfArrays   = []string{"128x128", "256x256", "384x384", "512x512"}
)

const (
	zipfRequests  = 600
	zipfPlanCache = 8
)

// zipfMix is what one replay of the zipf mix observed.
type zipfMix struct {
	// xcache counts the fleet's answers by X-Cache value, and latency holds
	// each answer's ServeHTTP time under the same value.
	xcache  map[string]int
	latency map[string][]time.Duration

	// fetches counts the peer fetches the shared transport carried, failed
	// the nodes' Peer.Failed, and compiles the compiles run anywhere in the
	// fleet. touched is the number of distinct keys the sequence draws.
	fetches  int64
	failed   uint64
	compiles uint64
	touched  int

	// baseHits and baseCompiles are the one-node baseline's X-Cache hits
	// and plan-cache misses.
	baseHits     int
	baseCompiles uint64
}

// replayZipfMix runs the zipf mix on a fresh three-node fleet — plan cache
// 8 and a store per node, one shared MemTransport — and then on one node
// with plan cache 8, no store and no peers. Every store is flushed after
// every request, so no store hit depends on when a write-behind lands.
func replayZipfMix(tb testing.TB) zipfMix {
	tb.Helper()
	var bodies []string
	for _, n := range zipfNetworks {
		for _, a := range zipfArrays {
			bodies = append(bodies, fmt.Sprintf(`{"network": %q, "array": %q}`, n, a))
		}
	}
	z := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 1, uint64(len(bodies)-1))
	seq := make([]int, zipfRequests)
	touched := map[int]bool{}
	for i := range seq {
		seq[i] = int(z.Uint64())
		touched[seq[i]] = true
	}
	serve := func(s *Server, k int) (string, time.Duration) {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(bodies[k]))
		start := time.Now()
		s.ServeHTTP(rw, req)
		d := time.Since(start)
		if rw.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", bodies[k], rw.Code, rw.Body)
		}
		return rw.Header().Get("X-Cache"), d
	}

	mix := zipfMix{xcache: map[string]int{}, latency: map[string][]time.Duration{}, touched: len(touched)}
	stores := make([]*store.Store, 3)
	servers, mt := newFleet(tb, len(stores), func(i int) Config {
		stores[i] = openStore(tb, tb.TempDir())
		return Config{PlanCacheSize: zipfPlanCache, Store: stores[i]}
	})
	var fetches atomic.Int64
	for addr, h := range mt {
		mt[addr] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fetches.Add(1)
			h.ServeHTTP(w, r)
		})
	}
	for i, k := range seq {
		xc, d := serve(servers[i%len(servers)], k)
		mix.xcache[xc]++
		mix.latency[xc] = append(mix.latency[xc], d)
		for _, st := range stores {
			st.Flush()
		}
	}
	mix.fetches = fetches.Load()
	// A plan-cache miss is a compile unless the store or a peer filled it.
	for _, s := range servers {
		st := s.Stats()
		mix.compiles += st.PlanCache.Misses - st.Store.Hits - st.Peer.Proxied
		mix.failed += st.Peer.Failed
	}

	base := New(Config{PlanCacheSize: zipfPlanCache})
	for _, k := range seq {
		if xc, _ := serve(base, k); xc == "hit" {
			mix.baseHits++
		}
	}
	mix.baseCompiles = base.Stats().PlanCache.Misses
	return mix
}

// TestFleetZipfMix pins the fleet tier's payoff on the zipf mix, count for
// count. The fleet compiles each key the sequence draws once (23), where
// one node with the same plan cache compiles 175 times; 595 of 600 answers
// are served without a local compile, against the node's 425. Every
// proxied answer made exactly one peer fetch, and no fetch failed. The
// sequence, the round-robin placement, the ring and the flushed stores are
// all deterministic, so the counts are exact on any machine.
func TestFleetZipfMix(t *testing.T) {
	mix := replayZipfMix(t)
	if want := map[string]int{"hit": 400, "store": 33, "peer": 162, "miss": 5}; !maps.Equal(mix.xcache, want) {
		t.Errorf("fleet X-Cache counts = %v, want %v", mix.xcache, want)
	}
	if mix.fetches != int64(mix.xcache["peer"]) || mix.failed != 0 {
		t.Errorf("%d peer fetches, %d failed, for %d proxied answers; want one fetch each and none failed",
			mix.fetches, mix.failed, mix.xcache["peer"])
	}
	if mix.touched != 23 || mix.compiles != uint64(mix.touched) {
		t.Errorf("fleet compiles = %d for %d touched keys, want 23 for 23 (one per key)", mix.compiles, mix.touched)
	}
	if mix.baseHits != 425 || mix.baseCompiles != 175 {
		t.Errorf("one-node baseline: %d hits and %d compiles, want 425 and 175", mix.baseHits, mix.baseCompiles)
	}
}

// BenchmarkFleetZipfMix replays the zipf mix on a fresh fleet per iteration
// and reports the median ServeHTTP time of each answer class: proxied (an
// owner's plan fetched over the transport), compute (a local compile) and
// hit (the node's plan cache or store). Its counts are TestFleetZipfMix's.
func BenchmarkFleetZipfMix(b *testing.B) {
	var proxied, compute, hit []time.Duration
	for b.Loop() {
		mix := replayZipfMix(b)
		proxied = append(proxied, mix.latency["peer"]...)
		compute = append(compute, mix.latency["miss"]...)
		hit = append(append(hit, mix.latency["hit"]...), mix.latency["store"]...)
	}
	for _, c := range []struct {
		unit string
		ds   []time.Duration
	}{{"proxied-p50-ns", proxied}, {"compute-p50-ns", compute}, {"hit-p50-ns", hit}} {
		slices.Sort(c.ds)
		b.ReportMetric(float64(c.ds[len(c.ds)/2]), c.unit)
	}
}

func TestWarmManifest(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Store: st})
	manifest := []byte(`{"requests": [
		{"network": {"name": "tiny", "layers": [
			{"name": "c1", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 8}]},
		 "array": "64x64"},
		{"network": {"name": "tiny", "layers": [
			{"name": "c1", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 8}]},
		 "array": "64x64"},
		{"network": {"name": "tiny2", "layers": [
			{"name": "c1", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 16}]},
		 "array": "64x64"}
	]}`)
	_, reqs, err := ParseManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Warm(context.Background(), reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate entry collapses: 2 distinct keys, both compiled.
	if stats.Total != 2 || stats.Compiled != 2 || stats.Hits != 0 || stats.Failed != 0 {
		t.Errorf("first warm = %+v, want 2 total, 2 compiled", stats)
	}
	st.Flush()

	// Warming again over the same store is a no-op: resumable via the store.
	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	stats2, err := s2.Warm(context.Background(), reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Compiled != 0 || stats2.Hits != 2 {
		t.Errorf("resumed warm = %+v, want 0 compiled, 2 hits", stats2)
	}
	if searches := s2.Engine().Stats().Searches; searches != 0 {
		t.Errorf("resumed warm ran %d searches, want 0", searches)
	}
}

func TestParseManifestRejects(t *testing.T) {
	cases := []string{
		`{}`,
		`{"requests": []}`,
		`{"requests": [{"network": "NoSuchNet", "array": "64x64"}]}`,
		`{"requests": [{"network": "VGG-13"}]}`,
		`{"typo": 1}`,
		`{"requests": [{"network": "VGG-13", "array": "64x64"}]}]}}`,
	}
	for _, c := range cases {
		if _, _, err := ParseManifest([]byte(c)); err == nil {
			t.Errorf("ParseManifest(%s) accepted", c)
		}
	}
}
