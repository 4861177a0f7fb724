package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// bg is the context every non-cancellation test runs under.
var bg = context.Background()

// testArrays spans the paper's evaluation sizes plus small arrays that force
// infeasible candidates into the sweeps.
var testArrays = []core.Array{
	{Rows: 64, Cols: 64},
	{Rows: 128, Cols: 128},
	{Rows: 128, Cols: 256},
	{Rows: 256, Cols: 256},
	{Rows: 512, Cols: 256},
	{Rows: 512, Cols: 512},
	{Rows: 1024, Cols: 1024},
}

// allMethods lists every search method core.Search dispatches.
var allMethods = []core.Method{
	{Scheme: core.SchemeIm2col},
	{Scheme: core.SchemeSMD},
	{Scheme: core.SchemeSDK},
	core.MethodVWSDK,
	{Scheme: core.SchemeVWSDK, Variant: core.VariantSquareTiled},
	{Scheme: core.SchemeVWSDK, Variant: core.VariantRectFullChannel},
}

// TestEngineMatchesSerialEverywhere is the differential test the engine's
// correctness rests on: on every layer of every predefined network, for
// every array size and every search method, the engine's result must be
// bit-identical (reflect.DeepEqual on the full Result struct) to the serial
// core algorithms'.
func TestEngineMatchesSerialEverywhere(t *testing.T) {
	e := New()
	for _, n := range model.All() {
		for _, a := range testArrays {
			for _, l := range n.CoreLayers() {
				for _, m := range allMethods {
					want, wantErr := core.Search(bg, l, a, m)
					got, gotErr := e.Search(bg, l, a, m)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s/%s/%v/%v: serial err=%v, engine err=%v",
							n.Name, l.Name, a, m, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s/%s/%v/%v:\nserial %+v\nengine %+v",
							n.Name, l.Name, a, m, want, got)
					}
				}
			}
		}
	}
	st := e.Stats()
	if st.CacheHits == 0 {
		t.Error("repeated shapes across networks produced no cache hits")
	}
}

// TestEngineCachedHitIsIdentical asserts a second lookup — served from the
// cache, possibly under a different layer name — still equals the serial
// result exactly.
func TestEngineCachedHitIsIdentical(t *testing.T) {
	e := New()
	l := core.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	if _, err := e.Search(bg, l, a, core.MethodVWSDK); err != nil {
		t.Fatal(err)
	}
	renamedLayer := l
	renamedLayer.Name = "resnet-conv4"
	want, err := core.SearchVWSDK(renamedLayer, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Search(bg, renamedLayer, a, core.MethodVWSDK)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("cached result differs:\nserial %+v\nengine %+v", want, got)
	}
	if st := e.Stats(); st.CacheHits == 0 {
		t.Errorf("stats = %+v, want a cache hit for the renamed shape", st)
	}
}

// TestEngineHit: Hit serves a stored search under another layer name and a
// method with the same canonical form, as a Search hit would: the same
// result (with the caller's name), one more search and one more hit, and
// one engine.search span with outcome hit. A search never run, or still in
// flight, is not served: dst is left alone, nothing is counted and no span
// is recorded.
func TestEngineHit(t *testing.T) {
	e := New()
	l := core.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	sdk := core.Method{Scheme: core.SchemeSDK}
	tr := obs.New("test")
	ctx := obs.NewContext(bg, tr)
	var dst core.Result
	if e.Hit(ctx, l, a, sdk, &dst) || dst != (core.Result{}) || tr.Len() != 0 || e.Stats() != (Stats{}) {
		t.Fatalf("a fresh engine served a search: %v, %d spans, %+v", dst.Best, tr.Len(), e.Stats())
	}
	if _, err := e.Search(bg, l, a, sdk); err != nil {
		t.Fatal(err)
	}
	other := l
	other.Name = "resnet-conv4"
	variant := core.Method{Scheme: core.SchemeSDK, Variant: core.VariantSquareTiled}
	want, err := e.Search(bg, other, a, variant)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if !e.Hit(ctx, other, a, variant, &dst) {
		t.Fatal("a stored search under another name and variant was not served")
	}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("Hit = %+v, want the Search hit %+v", dst.Best, want.Best)
	}
	if st := e.Stats(); st.Searches != before.Searches+1 || st.CacheHits != before.CacheHits+1 ||
		st.CacheMisses != before.CacheMisses || st.FlightDedupes != before.FlightDedupes {
		t.Errorf("a hit moved the counters %+v -> %+v, want one more search and hit", before, st)
	}
	nodes := tr.Tree()
	if len(nodes) != 1 || nodes[0].Name != "engine.search" || len(nodes[0].Attrs) != 2 ||
		nodes[0].Attrs["layer"] != "resnet-conv4" || nodes[0].Attrs["outcome"] != "hit" {
		t.Errorf("a hit recorded %+v, want one engine.search span {layer, outcome: hit}", nodes)
	}
	probe := core.Result{Evaluated: -1}
	before = e.Stats()
	if e.Hit(ctx, l, a, core.MethodVWSDK, &probe) || e.Hit(ctx, l, core.Array{Rows: 256, Cols: 256}, sdk, &probe) {
		t.Error("a search never run was served")
	}
	if probe != (core.Result{Evaluated: -1}) || tr.Len() != 1 || e.Stats() != before {
		t.Errorf("a miss wrote %+v, recorded %d spans or moved the counters %+v -> %+v", probe, tr.Len(), before, e.Stats())
	}
}

// TestEngineHitInFlight: a search still in flight is not served by Hit,
// which counts nothing; the Search that follows joins the flight.
func TestEngineHitInFlight(t *testing.T) {
	e := New()
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	a := core.Array{Rows: 256, Cols: 256}
	k, _ := newCacheKey(l, a, core.MethodVWSDK)
	release := make(chan struct{})
	leader := make(chan error)
	go func() {
		_, err := e.memoized(bg, k, l.Name, func(ctx context.Context) (core.Result, error) {
			<-release
			return core.Search(ctx, l, a, core.MethodVWSDK)
		})
		leader <- err
	}()
	for e.Stats().CacheMisses == 0 {
		runtime.Gosched()
	}
	var dst core.Result
	before := e.Stats()
	if e.Hit(bg, l, a, core.MethodVWSDK, &dst) {
		t.Error("Hit served a search still in flight")
	}
	if st := e.Stats(); st != before {
		t.Errorf("a probe of a flight moved the counters %+v -> %+v", before, st)
	}
	joined := make(chan error)
	go func() {
		_, err := e.Search(bg, l, a, core.MethodVWSDK)
		joined <- err
	}()
	for e.Stats().FlightDedupes == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Searches != 2 || st.CacheMisses != 1 || st.CacheHits != 1 || st.FlightDedupes != 1 {
		t.Errorf("stats = %+v, want the leader's miss and the joined Search's hit", st)
	}
	if !e.Hit(bg, l, a, core.MethodVWSDK, &dst) || dst.Best.Layer.Name != "c" {
		t.Errorf("Hit after the flight stored = %+v, want the stored search", dst.Best)
	}
}

// TestEngineVariantFullSharesVWSDKCache pins that methods with one canonical
// form share one cache entry: VW-SDK under VariantFull is MethodVWSDK, and a
// baseline method carrying a variant is its variant-free form. The second
// search of each form is a hit on the first one's entry, with the same
// result, no new miss and no new entry.
func TestEngineVariantFullSharesVWSDKCache(t *testing.T) {
	e := New()
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	a := core.Array{Rows: 256, Cols: 256}
	for _, base := range []core.Method{
		core.MethodVWSDK, {Scheme: core.SchemeSDK}, {Scheme: core.SchemeSMD}, {Scheme: core.SchemeIm2col},
	} {
		want, err := e.Search(bg, l, a, base)
		if err != nil {
			t.Fatal(err)
		}
		before := e.Stats()
		variants := []core.Variant{core.VariantFull}
		if base.Scheme != core.SchemeVWSDK {
			variants = append(variants, core.VariantSquareTiled, core.VariantRectFullChannel)
		}
		for _, v := range variants {
			m := core.Method{Scheme: base.Scheme, Variant: v}
			got, err := e.Search(bg, l, a, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: result differs from %v's", m, base)
			}
		}
		st := e.Stats()
		if st.CacheMisses != before.CacheMisses || st.CachedResults != before.CachedResults ||
			st.CacheHits != before.CacheHits+uint64(len(variants)) {
			t.Errorf("%v: stats %+v -> %+v, want %d hits and no new miss or entry",
				base, before, st, len(variants))
		}
	}
}

// TestEngineSearchNetwork searches every layer of each zoo network at once
// on one engine, the way a compile fans a network's layers out, and checks
// each result against the serial search in layer order; ResNet-18's summed
// cycles are Table I's 4294 VW-SDK and 20041 im2col.
func TestEngineSearchNetwork(t *testing.T) {
	e := New()
	a := core.Array{Rows: 512, Cols: 512}
	for _, n := range model.All() {
		layers := n.CoreLayers()
		got := make([]core.Result, len(layers))
		errs := make([]error, len(layers))
		var wg sync.WaitGroup
		for i, l := range layers {
			wg.Add(1)
			go func(i int, l core.Layer) {
				defer wg.Done()
				got[i], errs[i] = e.Search(bg, l, a, core.MethodVWSDK)
			}(i, l)
		}
		wg.Wait()
		var cycles, im2col int64
		for i, l := range layers {
			if errs[i] != nil {
				t.Fatalf("%s/%s: %v", n.Name, l.Name, errs[i])
			}
			want, err := core.Search(bg, l, a, core.MethodVWSDK)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Errorf("%s/%s: engine result differs\nserial %+v\nengine %+v", n.Name, l.Name, want, got[i])
			}
			cycles += got[i].Best.Cycles
			im2col += got[i].Im2col.Cycles
		}
		if n.Name == "ResNet-18" && (cycles != 4294 || im2col != 20041) {
			t.Errorf("ResNet-18 totals = %d/%d, want 4294/20041", cycles, im2col)
		}
	}
	if st := e.Stats(); st.Searches != st.CacheHits+st.CacheMisses {
		t.Errorf("stats don't balance: %+v", st)
	}
}

// TestEngineErrorsMatchSerial checks the failure paths stay serial-shaped:
// invalid layers and arrays error without panicking or caching.
func TestEngineErrorsMatchSerial(t *testing.T) {
	e := New()
	bad := core.Layer{IW: 0, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}
	a := core.Array{Rows: 512, Cols: 512}
	if _, err := e.Search(bg, bad, a, core.MethodVWSDK); err == nil {
		t.Error("engine accepted invalid layer")
	}
	ok := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}
	if _, err := e.Search(bg, ok, core.Array{}, core.MethodVWSDK); err == nil {
		t.Error("engine accepted invalid array")
	}
	if st := e.Stats(); st.CachedResults != 0 {
		t.Errorf("errored searches were cached: %+v", st)
	}
	if st := e.Stats(); st.Searches != st.CacheHits+st.CacheMisses {
		t.Errorf("stats don't balance: %+v", st)
	}
}

// TestEngineConcurrentIdenticalSearches hammers one shape from many
// goroutines; duplicate suppression must collapse them onto one computation
// and every caller must still see the serial result (run under -race).
func TestEngineConcurrentIdenticalSearches(t *testing.T) {
	e := New()
	l := core.Layer{Name: "conv5", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	want, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var wg sync.WaitGroup
	results := make([]core.Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Search(bg, l, a, core.MethodVWSDK)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(want, results[i]) {
			t.Fatalf("caller %d: result differs from serial", i)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want exactly 1 computation for %d identical searches",
			st, callers)
	}
	// The 31 non-leaders were served either by joining the leader's
	// in-flight search or from the cache after it landed; dedupes are the
	// in-flight subset of the hits.
	if st.CacheHits != callers-1 {
		t.Errorf("stats = %+v, want %d cache hits", st, callers-1)
	}
	if st.FlightDedupes > st.CacheHits {
		t.Errorf("stats = %+v: in-flight dedupes exceed cache hits", st)
	}
	if st.Searches != st.CacheHits+st.CacheMisses {
		t.Errorf("stats don't balance: %+v", st)
	}
}

// TestEngineFlightDedupeCounter pins FlightDedupes deterministically: with
// the result cache disabled, a waiter that joins an in-flight search is the
// only way a hit can happen. The leader's compute blocks until the waiter is
// known to have joined, so the join is forced.
func TestEngineFlightDedupeCounter(t *testing.T) {
	e := New(WithCacheSize(0))
	l := core.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}

	entered, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	k, _ := newCacheKey(l, a, core.MethodVWSDK)
	go func() {
		_, err := e.memoized(bg, k, l.Name, func(ctx context.Context) (core.Result, error) {
			close(entered)
			<-release
			return core.Search(ctx, l, a, core.MethodVWSDK)
		})
		leaderErr <- err
	}()
	<-entered // the leader is registered in flight and blocked in its compute
	waiterErr := make(chan error, 1)
	go func() {
		_, err := e.Search(bg, l, a, core.MethodVWSDK)
		waiterErr <- err
	}()
	// Wait until the waiter has observed the in-flight entry (its dedupe is
	// counted before it blocks on the leader), then release the leader.
	for e.Stats().FlightDedupes == 0 {
		if e.Stats().CacheMisses > 1 {
			t.Fatal("waiter recomputed instead of joining the in-flight search")
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if err := <-waiterErr; err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Searches != 2 || st.CacheMisses != 1 || st.CacheHits != 1 || st.FlightDedupes != 1 {
		t.Errorf("stats = %+v, want 2 searches = 1 miss + 1 in-flight dedupe", st)
	}
}

// TestInFlightSearchesGauge pins InFlightSearches to the searches running
// inside the memo's compute closure. With GOMAXPROCS+1 distinct searches
// blocked in their computes the gauge reads all of them, because the
// engine bounds nothing itself; it reads 0 once they return; and neither a
// cache hit nor a join onto an in-flight search moves it.
func TestInFlightSearchesGauge(t *testing.T) {
	e := New()
	key := func(i int) cacheKey { return cacheKey{dims: [13]int32{int32(i)}} }
	stored := func(context.Context) (core.Result, error) { return core.Result{Evaluated: 1}, nil }
	if _, err := e.memoized(bg, key(0), "hit", stored); err != nil {
		t.Fatal(err)
	}
	gauge := func() int64 { return e.Stats().InFlightSearches }
	if got := gauge(); got != 0 {
		t.Fatalf("gauge = %d after a returned search, want 0", got)
	}

	k := runtime.GOMAXPROCS(0) + 1
	var entered, done sync.WaitGroup
	release := make(chan struct{})
	entered.Add(k)
	done.Add(k + 1)
	search := func(i int) {
		defer done.Done()
		_, err := e.memoized(bg, key(i), "blocked", func(context.Context) (core.Result, error) {
			entered.Done()
			<-release
			return core.Result{Evaluated: 1}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	for i := 1; i <= k; i++ {
		go search(i)
	}
	entered.Wait()
	if got := gauge(); got != int64(k) {
		t.Errorf("gauge = %d with %d searches blocked in compute, want %d", got, k, k)
	}
	// A hit is served without computing.
	if _, err := e.memoized(bg, key(0), "hit", func(context.Context) (core.Result, error) {
		t.Error("a cached search recomputed")
		return core.Result{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// A join waits on key(1)'s flight without computing.
	go func() {
		defer done.Done()
		if _, err := e.memoized(bg, key(1), "joiner", stored); err != nil {
			t.Error(err)
		}
	}()
	for e.Stats().FlightDedupes == 0 {
		runtime.Gosched()
	}
	if got := gauge(); got != int64(k) {
		t.Errorf("gauge = %d after a hit and a join, want %d", got, k)
	}
	close(release)
	done.Wait()
	if got := gauge(); got != 0 {
		t.Errorf("gauge = %d once every search returned, want 0", got)
	}
	if st := e.Stats(); st.CacheMisses != uint64(k)+1 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want %d misses and 2 hits", st, k+1)
	}
}

// TestEngineOptions exercises the cache-size knob, including the disabled
// and single-entry caches and the default for a negative size.
func TestEngineOptions(t *testing.T) {
	l := core.Layer{Name: "c", IW: 28, IH: 28, KW: 3, KH: 3, IC: 64, OC: 64}
	a := core.Array{Rows: 256, Cols: 256}
	want, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{-3, 0, 1, 64} {
		e := New(WithCacheSize(size))
		got, err := e.Search(bg, l, a, core.MethodVWSDK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cache size %d: result differs from serial", size)
		}
	}
	nocache := New(WithCacheSize(0))
	for i := 0; i < 2; i++ {
		if _, err := nocache.Search(bg, l, a, core.MethodVWSDK); err != nil {
			t.Fatal(err)
		}
	}
	if st := nocache.Stats(); st.CacheHits != 0 || st.CachedResults != 0 {
		t.Errorf("cache disabled but stats = %+v", st)
	}
	if c := New(WithCacheSize(-3)).cacheCap; c != defaultCacheSize {
		t.Errorf("cache size for n < 0 = %d, want the default %d", c, defaultCacheSize)
	}
}

// TestCacheLRUEviction pins the LRU policy: capacity-1 cache keeps only the
// most recent result.
func TestCacheLRUEviction(t *testing.T) {
	e := New(WithCacheSize(1))
	a := core.Array{Rows: 256, Cols: 256}
	l1 := core.Layer{Name: "a", IW: 14, IH: 14, KW: 3, KH: 3, IC: 16, OC: 16}
	l2 := core.Layer{Name: "b", IW: 16, IH: 16, KW: 3, KH: 3, IC: 16, OC: 16}
	for _, l := range []core.Layer{l1, l2, l1} {
		if _, err := e.Search(bg, l, a, core.MethodVWSDK); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 3 misses (l1 evicted by l2)", st)
	}
	if st.CachedResults != 1 {
		t.Errorf("cached results = %d, want 1", st.CachedResults)
	}
	// Each insertion beyond the capacity-1 cache evicts the previous
	// result: l2 evicts l1, then l1's recompute evicts l2.
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st := New(WithCacheSize(0)).Stats(); st.Evictions != 0 {
		t.Errorf("disabled cache evictions = %d, want 0", st.Evictions)
	}
}

// TestCacheKeyFitsMapSlot: a Go map stores a key of at most 128 bytes in
// its slot and copies a larger one to the heap on every insert, which an
// engine miss makes twice (the memo's in-flight and stored maps).
func TestCacheKeyFitsMapSlot(t *testing.T) {
	if n := unsafe.Sizeof(cacheKey{}); n > 128 {
		t.Fatalf("cacheKey is %d bytes, want at most 128", n)
	}
}

// TestEngineWideValuesBypassCache: a value the narrowed key cannot hold is
// searched directly and never served from another entry. Truncated, a
// channel count past int32 would read as a cached layer's, and a scheme
// past uint8 as im2col.
func TestEngineWideValuesBypassCache(t *testing.T) {
	e := New()
	a := core.Array{Rows: 512, Cols: 512}
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	for _, m := range []core.Method{core.MethodVWSDK, {Scheme: core.SchemeIm2col}} {
		if _, err := e.Search(bg, l, a, m); err != nil {
			t.Fatal(err)
		}
	}
	wide := l
	wide.IC += 1 << (strconv.IntSize - 32) // l's 64, truncated to int32
	cases := []struct {
		l core.Layer
		m core.Method
	}{{l, core.Method{Scheme: core.SchemeIm2col + 256}}, {wide, core.MethodVWSDK}}
	if strconv.IntSize == 32 {
		cases = cases[:1] // no int exceeds int32
	}
	for _, tc := range cases {
		got, err := e.Search(bg, tc.l, a, tc.m)
		want, werr := core.Search(bg, tc.l, a, tc.m)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%v %v: engine = %v, %v; core.Search = %v, %v", tc.l, tc.m, got.Best, err, want.Best, werr)
		}
		var dst core.Result
		if e.Hit(bg, tc.l, a, tc.m, &dst) {
			t.Errorf("%v %v was served from the cache: %v", tc.l, tc.m, dst.Best)
		}
	}
	if st := e.Stats(); st.Searches != 2 || st.CachedResults != 2 {
		t.Errorf("stats = %+v, want the 2 narrow searches only", st)
	}
}

// TestEngineMissAllocs pins a computed VW-SDK search on a full cache at 3
// allocations, all the memo's: the in-flight record, its done channel and
// the LRU element. The class walk allocates nothing, and the key stays in
// the maps' slots.
func TestEngineMissAllocs(t *testing.T) {
	const capacity = 8
	e := New(WithCacheSize(capacity))
	a := core.Array{Rows: 256, Cols: 256}
	i := 0
	miss := func() {
		i++ // a new shape every call, so every search misses
		l := core.Layer{IW: 14 + i, IH: 14, KW: 3, KH: 3, IC: 16, OC: 16}
		if _, err := e.Search(bg, l, a, core.MethodVWSDK); err != nil {
			t.Fatal(err)
		}
	}
	for range capacity {
		miss()
	}
	got := testing.AllocsPerRun(100, miss)
	if st := e.Stats(); st.CacheMisses != uint64(i) || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want %d misses and no hit", st, i)
	}
	if got != 3 {
		t.Errorf("engine miss = %v allocations, want 3", got)
	}
}

// TestEngineCandidateCounters pins CandidatesCosted/CandidatesPruned
// deterministically: one computed search adds exactly the serial result's
// cost-class count and the exhaustive-minus-costed difference; cache hits add
// nothing; and baseline searches (no pruned/exhaustive split) prune nothing.
func TestEngineCandidateCounters(t *testing.T) {
	l := core.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	serial, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := core.ExhaustiveCandidates(l, core.VariantFull)

	e := New()
	if _, err := e.Search(bg, l, a, core.MethodVWSDK); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CandidatesCosted != uint64(serial.Evaluated) {
		t.Errorf("CandidatesCosted = %d, want %d (serial cost classes)",
			st.CandidatesCosted, serial.Evaluated)
	}
	if want := uint64(enumerated) - uint64(serial.Evaluated); st.CandidatesPruned != want {
		t.Errorf("CandidatesPruned = %d, want %d (%d enumerated − %d costed)",
			st.CandidatesPruned, want, enumerated, serial.Evaluated)
	}
	// A cache hit costs nothing.
	if _, err := e.Search(bg, l, a, core.MethodVWSDK); err != nil {
		t.Fatal(err)
	}
	if st2 := e.Stats(); st2.CandidatesCosted != st.CandidatesCosted || st2.CandidatesPruned != st.CandidatesPruned {
		t.Errorf("cache hit moved candidate counters: %+v -> %+v", st, st2)
	}
	// Baseline searches count their costed candidates but prune nothing.
	sdk, err := e.Search(bg, l, a, core.Method{Scheme: core.SchemeSDK})
	if err != nil {
		t.Fatal(err)
	}
	if st3 := e.Stats(); st3.CandidatesCosted != st.CandidatesCosted+uint64(sdk.Evaluated) ||
		st3.CandidatesPruned != st.CandidatesPruned {
		t.Errorf("SDK search counters off: %+v (sdk costed %d)", st3, sdk.Evaluated)
	}
}

// TestSweep searches a networks × arrays × variants grid layer by layer on
// one shared engine, as a sweep over compiles does: every cell's total is
// the serial per-layer sum, and a second pass over the grid is served from
// the cache alone.
func TestSweep(t *testing.T) {
	e := New()
	networks := []model.Network{model.VGG13(), model.ResNet18()}
	arrays := []core.Array{{Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}}
	variants := []core.Variant{core.VariantFull, core.VariantSquareTiled}
	sweep := func() (totals []int64, searches uint64) {
		for _, n := range networks {
			for _, a := range arrays {
				for _, v := range variants {
					m := core.Method{Scheme: core.SchemeVWSDK, Variant: v}
					var total int64
					for _, l := range n.CoreLayers() {
						r, err := e.Search(bg, l, a, m)
						if err != nil {
							t.Fatalf("%s/%v/%v: %v", n.Name, a, v, err)
						}
						total += r.Best.Cycles
						searches++
					}
					totals = append(totals, total)
				}
			}
		}
		return totals, searches
	}

	got, searches := sweep()
	i := 0
	for _, n := range networks {
		for _, a := range arrays {
			for _, v := range variants {
				var want int64
				for _, l := range n.CoreLayers() {
					r, err := core.SearchVariant(l, a, v)
					if err != nil {
						t.Fatal(err)
					}
					want += r.Best.Cycles
				}
				if got[i] != want {
					t.Errorf("%s/%v/%v: total = %d, want %d", n.Name, a, v, got[i], want)
				}
				i++
			}
		}
	}

	before := e.Stats()
	again, _ := sweep()
	if !reflect.DeepEqual(again, got) {
		t.Errorf("second sweep totals %v, first %v", again, got)
	}
	st := e.Stats()
	if st.CacheMisses != before.CacheMisses || st.CacheHits != before.CacheHits+searches {
		t.Errorf("stats %+v -> %+v, want %d hits and no new miss", before, st, searches)
	}
}

// BenchmarkEngineSearchHit is the cost of one engine hit: ResNet-18's five
// layer shapes on a 256×256 array, each searched once before the timer
// starts, then served from the cache in turn. An op is one hit.
func BenchmarkEngineSearchHit(b *testing.B) {
	e := New()
	a := core.Array{Rows: 256, Cols: 256}
	layers := model.ResNet18().CoreLayers()
	for _, l := range layers {
		if _, err := e.Search(bg, l, a, core.MethodVWSDK); err != nil {
			b.Fatal(err)
		}
	}
	i := 0
	for b.Loop() {
		if _, err := e.Search(bg, layers[i], a, core.MethodVWSDK); err != nil {
			b.Fatal(err)
		}
		i = (i + 1) % len(layers)
	}
	if st := e.Stats(); st.CacheMisses != uint64(len(layers)) {
		b.Fatalf("stats = %+v, want only the %d set-up misses", st, len(layers))
	}
}
