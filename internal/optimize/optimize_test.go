package optimize

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func exampleSpace(t *testing.T) DesignSpace {
	t.Helper()
	s, err := FromJSONFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDesignsEnumeration(t *testing.T) {
	s := exampleSpace(t)
	designs := Designs(s)
	want, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != want {
		t.Fatalf("got %d designs, want %d", len(designs), want)
	}
	for i, d := range designs {
		if d.ID != i+1 {
			t.Fatalf("design %d has ID %d", i, d.ID)
		}
		if len(d.Arrays) != 1 {
			t.Fatalf("design %d assigns %d arrays for 1 group", d.ID, len(d.Arrays))
		}
	}
	// Canonical order: assignment outermost, then chips, then gating.
	first := designs[0]
	if first.Arrays[0] != (core.Array{Rows: 64, Cols: 64}) || first.Chips != 1 || first.Gated {
		t.Fatalf("first design = %+v", first)
	}
	second := designs[1]
	if second.Chips != 1 || !second.Gated {
		t.Fatalf("second design = %+v", second)
	}
	// A space with no arrays yields no design.
	if empty := Designs(DesignSpace{}); len(empty) != 0 {
		t.Errorf("the empty space yields %d designs, want none", len(empty))
	}
}

// TestDesignsAllocs pins Designs at 3 allocations on perfbench's codesign
// space shape, 3 arrays × 2 layer groups × 2 chip counts × 2 gating
// settings (36 points): the odometer, the array assignments, which share
// one backing array, and the designs, sized from the point count. One
// slice per assignment and a designs slice grown by appending made it 16.
// The assignments must still be the odometer's, each its own slice.
func TestDesignsAllocs(t *testing.T) {
	s := DesignSpace{
		Network: model.VGG13(),
		Arrays:  []core.Array{{Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}},
		Chips:   []int{1, 4},
		Gating:  []bool{false, true},
		Groups:  2,
	}
	designs := Designs(s)
	if len(designs) != 36 {
		t.Fatalf("got %d designs, want 36", len(designs))
	}
	for i, d := range designs {
		a := i / 4 // four chip and gating settings per assignment
		want := []core.Array{s.Arrays[a/3], s.Arrays[a%3]}
		if !slices.Equal(d.Arrays, want) || cap(d.Arrays) != 2 {
			t.Fatalf("design %d assigns %v (capacity %d), want %v", d.ID, d.Arrays, cap(d.Arrays), want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Designs(s) }); allocs > 3 {
		t.Errorf("Designs allocates %.0f times, want ≤ 3", allocs)
	}
}

func TestDesignsHeterogeneous(t *testing.T) {
	s := exampleSpace(t)
	s.Groups = 2
	s.Chips = []int{1}
	s.Gating = []bool{false}
	designs := Designs(s)
	if len(designs) != 16 { // 4 arrays ^ 2 groups
		t.Fatalf("got %d designs, want 16", len(designs))
	}
	// The odometer must produce genuinely heterogeneous assignments.
	var hetero int
	for _, d := range designs {
		if d.Arrays[0] != d.Arrays[1] {
			hetero++
		}
	}
	if hetero != 12 {
		t.Fatalf("got %d heterogeneous assignments, want 12", hetero)
	}
}

// TestFrontierGolden pins the example space's frontier byte-for-byte:
// deterministic ordering, JSON round-trip, and (via Validate inside
// FromJSONFrontier) the absence of dominated points.
func TestFrontierGolden(t *testing.T) {
	f, err := New(nil).Run(context.Background(), exampleSpace(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := f.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tinynet_frontier.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frontier differs from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Round trip: parse (which re-validates invariants) and re-serialize.
	f2, err := FromJSONFrontier(got)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := f2.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("frontier JSON round trip not byte-identical")
	}
	if len(f.Points) < 1 || f.Dominated < 1 {
		t.Fatalf("degenerate golden frontier: %d points, %d dominated", len(f.Points), f.Dominated)
	}
}

// TestMultiGroupGolden pins Run's whole event stream and final frontier on
// spaces whose design points share group cells: the example space at 2
// layer groups (64 points) and at 3 (256 points; groups of 1, 1 and 2
// layers). Each golden is the /v1/optimize wire form, one compact JSON line
// per event and a closing "frontier" line. Every admitted and rejected
// point must equal the single-point Evaluate of its design bit for bit. The
// run must compile each (group, array, chips, gating) cell once, as its
// span's "compiles" attribute reports, so the engine serves one search per
// layer of each cell — not one per layer of each design point — and runs
// the algorithm once per distinct (layer, array) pair.
func TestMultiGroupGolden(t *testing.T) {
	for _, groups := range []int{2, 3} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			ctx := context.Background()
			s := exampleSpace(t)
			s.Groups = groups
			eng := engine.New()
			o := New(compile.New(eng))
			var stream bytes.Buffer
			var scored []FrontierPoint
			line := func(v any) {
				data, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				stream.Write(append(data, '\n'))
			}
			tr := obs.New("test")
			f, err := o.Run(obs.NewContext(ctx, tr), s, func(e Event) {
				line(e)
				if e.Point != nil {
					scored = append(scored, *e.Point)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			line(struct {
				Kind     string    `json:"event"`
				Frontier *Frontier `json:"frontier"`
			}{"frontier", f})

			var cells, searches int
			for _, layers := range s.LayerGroups() {
				perGroup := len(s.Arrays) * len(s.Chips) * len(s.Gating)
				cells += perGroup
				searches += len(layers) * perGroup
			}
			var attrs map[string]any
			if sp := obs.Find(tr.Tree(), "optimize"); sp != nil {
				attrs = sp.Attrs
			}
			if attrs["compiles"] != int64(cells) {
				t.Errorf("optimize span attrs %v, want compiles %d", attrs, cells)
			}
			st := eng.Stats()
			if st.Searches != uint64(searches) {
				t.Errorf("engine served %d searches, want %d (one per layer of each group cell)", st.Searches, searches)
			}
			// The example network's layers all differ in shape, and neither
			// chips nor gating enters the search key.
			if distinct := len(s.Network.Layers) * len(s.Arrays); st.CacheMisses != uint64(distinct) {
				t.Errorf("engine ran %d searches, want %d (one per distinct layer shape and array)", st.CacheMisses, distinct)
			}

			golden := filepath.Join("testdata", fmt.Sprintf("tinynet_groups%d_stream.golden.ndjson", groups))
			if *update {
				if err := os.WriteFile(golden, stream.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(stream.Bytes(), want) {
				t.Fatalf("stream differs from %s (regenerate with -update if intended)", golden)
			}

			designs := Designs(s)
			if len(scored) != len(designs) {
				t.Fatalf("%d scored events for %d designs", len(scored), len(designs))
			}
			for i, d := range designs {
				want, err := o.Evaluate(ctx, s, d)
				if err != nil {
					t.Fatal(err)
				}
				got := scored[i]
				if got.ID != want.ID || !slices.Equal(got.Arrays, want.Arrays) || got.Chips != want.Chips ||
					got.Gated != want.Gated || got.Metrics.Cycles != want.Metrics.Cycles ||
					got.Metrics.AreaCells != want.Metrics.AreaCells ||
					math.Float64bits(got.Metrics.EnergyJ) != math.Float64bits(want.Metrics.EnergyJ) {
					t.Fatalf("design %d: Run scored %+v, Evaluate %+v", d.ID, got, want)
				}
			}
		})
	}
}

// TestFrontierProperty is the acceptance property: no returned point is
// dominated by ANY evaluated point (not just frontier survivors), and every
// evaluated point is either on the frontier or dominated by a frontier
// point.
func TestFrontierProperty(t *testing.T) {
	s := exampleSpace(t)
	o := New(nil)
	ctx := context.Background()
	f, err := o.Run(ctx, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []FrontierPoint
	for _, d := range Designs(s) {
		p, err := o.Evaluate(ctx, s, d)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	if len(all) != f.Evaluated {
		t.Fatalf("evaluated %d points, frontier says %d", len(all), f.Evaluated)
	}
	onFrontier := make(map[int]bool, len(f.Points))
	for _, p := range f.Points {
		onFrontier[p.ID] = true
	}
	for _, p := range f.Points {
		for _, q := range all {
			if q.ID != p.ID && q.Metrics.Dominates(p.Metrics) && !p.Metrics.Dominates(q.Metrics) {
				t.Errorf("frontier point %d strictly dominated by evaluated point %d", p.ID, q.ID)
			}
		}
	}
	for _, q := range all {
		if onFrontier[q.ID] {
			continue
		}
		dominated := false
		for _, p := range f.Points {
			if p.Metrics.Dominates(q.Metrics) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-frontier point %d is not dominated by any frontier point", q.ID)
		}
	}
}

// TestMemoizedReuse proves the tentpole's sharing claim with engine.Stats:
// across all design points, each distinct (layer, array) cell runs the
// underlying search exactly once; every other search is a cache hit or an
// in-flight join.
func TestMemoizedReuse(t *testing.T) {
	s := exampleSpace(t)
	s.Arrays = []core.Array{{Rows: 64, Cols: 64}, {Rows: 128, Cols: 128}}
	s.Normalize()

	eng := engine.New()
	o := New(compile.New(eng))
	f, err := o.Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	layers := len(s.Network.Layers)          // 4 distinct layer shapes
	points := f.Evaluated                    // 2 arrays × 2 chips × 2 gating = 8
	distinct := layers * len(s.Arrays)       // 8 distinct (layer, array) cells
	totalSearches := uint64(layers * points) // 32 searches issued
	st := eng.Stats()
	if points != 8 {
		t.Fatalf("evaluated %d points, want 8", points)
	}
	if st.Searches != totalSearches {
		t.Fatalf("engine served %d searches, want %d", st.Searches, totalSearches)
	}
	if st.CacheMisses != uint64(distinct) {
		t.Fatalf("engine ran %d real searches for %d distinct (layer, array) cells", st.CacheMisses, distinct)
	}
	if got := st.CacheHits + st.FlightDedupes; got != totalSearches-uint64(distinct) {
		t.Fatalf("cache hits + flight dedupes = %d, want %d", got, totalSearches-uint64(distinct))
	}
}

// TestGatingDominance pins the energy model's gating guarantee as a frontier
// fact: an ungated point has the same cycles and area as its gated twin but
// strictly more energy, so spaces with gating [false, true] always produce
// dominated points.
func TestGatingDominance(t *testing.T) {
	s := exampleSpace(t)
	o := New(nil)
	ctx := context.Background()
	designs := Designs(s)
	byID := make(map[int]Design, len(designs))
	for _, d := range designs {
		byID[d.ID] = d
	}
	for _, d := range designs {
		if d.Gated {
			continue
		}
		var twin *Design
		for _, e := range designs {
			if e.Gated && e.Chips == d.Chips && e.Arrays[0] == d.Arrays[0] {
				twin = &e
				break
			}
		}
		if twin == nil {
			t.Fatalf("design %d has no gated twin", d.ID)
		}
		pu, err := o.Evaluate(ctx, s, d)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := o.Evaluate(ctx, s, *twin)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Metrics.Cycles != pu.Metrics.Cycles || pg.Metrics.AreaCells != pu.Metrics.AreaCells {
			t.Fatalf("gated twin of %d changes cycles/area: %+v vs %+v", d.ID, pg.Metrics, pu.Metrics)
		}
		if pg.Metrics.EnergyJ >= pu.Metrics.EnergyJ {
			t.Fatalf("gated twin of %d not strictly cheaper: %g >= %g", d.ID, pg.Metrics.EnergyJ, pu.Metrics.EnergyJ)
		}
		if !pg.Metrics.Dominates(pu.Metrics) {
			t.Fatalf("gated twin of %d does not dominate it", d.ID)
		}
	}
}

// TestEvents checks the stream is a faithful replay of the frontier: admits
// minus evicts reproduce the final point set, rejects and evicts carry the
// dominating point, and counts agree.
func TestEvents(t *testing.T) {
	s := exampleSpace(t)
	var events []Event
	f, err := New(nil).Run(context.Background(), s, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int]*FrontierPoint)
	admitted := make(map[int]bool)
	var admits, evicts, rejects int
	for _, e := range events {
		switch e.Kind {
		case "admit":
			if e.Point == nil || e.Point.ID != e.ID || e.By != 0 {
				t.Fatalf("malformed admit %+v", e)
			}
			live[e.ID] = e.Point
			admitted[e.ID] = true
			admits++
		case "evict":
			if !admitted[e.ID] || live[e.ID] == nil {
				t.Fatalf("evict of never-admitted point %d", e.ID)
			}
			if e.By == 0 || e.Point != nil {
				t.Fatalf("malformed evict %+v", e)
			}
			delete(live, e.ID)
			evicts++
		case "reject":
			if e.By == 0 || e.Point == nil || e.Point.ID != e.ID {
				t.Fatalf("malformed reject %+v", e)
			}
			rejects++
		default:
			t.Fatalf("unknown event kind %q", e.Kind)
		}
	}
	if admits != f.Admitted || evicts != f.Evicted || rejects != f.Rejected {
		t.Fatalf("event counts (%d, %d, %d) != frontier (%d, %d, %d)",
			admits, evicts, rejects, f.Admitted, f.Evicted, f.Rejected)
	}
	if len(live) != len(f.Points) {
		t.Fatalf("replay leaves %d live points, frontier has %d", len(live), len(f.Points))
	}
	for _, p := range f.Points {
		got, ok := live[p.ID]
		if !ok {
			t.Fatalf("frontier point %d missing from replay", p.ID)
		}
		if got.Metrics != p.Metrics {
			t.Fatalf("replayed point %d metrics %+v != %+v", p.ID, got.Metrics, p.Metrics)
		}
	}
}

// failingSearcher fails the search of every layer with a kernel wider than 3
// on one array and delegates every other search to inner.
type failingSearcher struct {
	inner core.Searcher
	bad   core.Array
}

func (f failingSearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	if a == f.bad && l.KW > 3 {
		return core.Result{}, errors.New("injected search failure")
	}
	return f.inner.Search(ctx, l, a, m)
}

// TestRunFirstFailure pins Run's failure to that of evaluating every point
// afresh. At 2 groups, only the second group (with the 5x5 conv4) fails, and
// only on 128x128, so the first failing design reads a memoized cell for
// its first group before its second group fails. Run must fail on the
// design whose own Evaluate fails first, with the same error, after scoring
// exactly the designs before it.
func TestRunFirstFailure(t *testing.T) {
	ctx := context.Background()
	s := exampleSpace(t)
	s.Groups = 2
	o := New(compile.New(failingSearcher{inner: engine.New(), bad: core.Array{Rows: 128, Cols: 128}}))
	var want error
	var before int
	for _, d := range Designs(s) {
		if _, want = o.Evaluate(ctx, s, d); want != nil {
			break
		}
		before++
	}
	var scored int
	_, err := o.Run(ctx, s, func(e Event) {
		if e.Point != nil {
			scored++
		}
	})
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Run failed with %v, the first failing Evaluate with %v", err, want)
	}
	if before == 0 || scored != before {
		t.Fatalf("Run scored %d designs before failing, Evaluate %d", scored, before)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(nil).Run(ctx, exampleSpace(t), nil); err == nil {
		t.Fatal("cancelled Run returned no error")
	}
}

func TestRunInvalidSpace(t *testing.T) {
	if _, err := New(nil).Run(context.Background(), DesignSpace{}, nil); err == nil {
		t.Fatal("empty space accepted")
	}
}

// TestWarmRunAllocs pins the allocations and bytes of a co-design run whose
// every search is an engine hit: the example space at 2 layer groups (64
// points, 32 cell compiles). Both are counted at GOMAXPROCS 1, where every
// compile runs its layers on the caller, so they repeat on any runner. The
// count reads 16 and the bytes 15,512, also under the race detector: the
// cells compile into the run's one scratch plan, which holds its energy
// model, an all-hit compile allocates nothing, a run that emits nothing
// keeps no point, Designs allocates 3 times whatever the space, and the
// frontier sorts without reflection. One slice per array assignment, a
// designs slice grown by appending and a reflective frontier sort made them
// 40 allocations of 19,968 bytes. A point on the heap per evaluated point
// and a per-layer closure per cell compile made them 136 allocations of
// 26,624 bytes, a new energy model per cell compile and a fan-out that
// allocated at width one 264 of 31,936, and a new plan per cell compile 342
// of 103,824.
func TestWarmRunAllocs(t *testing.T) {
	const limit, bytesLimit = 16, 16_500
	s := exampleSpace(t)
	s.Groups = 2
	o := New(compile.New(engine.New()))
	run := func() {
		if _, err := o.Run(context.Background(), s, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the engine, so every measured run is all hits
	if allocs := testing.AllocsPerRun(50, run); allocs > limit {
		t.Errorf("warm run allocates %.0f times, want ≤ %d", allocs, limit)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > bytesLimit {
		t.Errorf("warm run allocates %d bytes, want ≤ %d", b, bytesLimit)
	}
}

// encodedStream runs s on o and returns the stream encoding/json writes for
// the run, as /v1/optimize serves it: one line per event, then the final
// frontier line.
func encodedStream(o *Optimizer, s DesignSpace) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var encErr error
	f, err := o.Run(context.Background(), s, func(e Event) {
		if err := enc.Encode(e); err != nil && encErr == nil {
			encErr = err
		}
	})
	if err != nil {
		return nil, err
	}
	if encErr != nil {
		return nil, encErr
	}
	if err := enc.Encode(finalLine{"frontier", f}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestConcurrentRuns pins that runs sharing one Optimizer keep their own
// scratch: four goroutines run the 2- and 3-group example spaces on one
// optimizer at once, in opposite orders, and every stream must equal its
// golden.
func TestConcurrentRuns(t *testing.T) {
	spaces := map[int]DesignSpace{}
	want := map[int][]byte{}
	for _, groups := range []int{2, 3} {
		s := exampleSpace(t)
		s.Groups = groups
		spaces[groups] = s
		golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("tinynet_groups%d_stream.golden.ndjson", groups)))
		if err != nil {
			t.Fatal(err)
		}
		want[groups] = golden
	}
	o := New(compile.New(engine.New()))
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 {
				groups := 2 + (w+i)%2
				got, err := encodedStream(o, spaces[groups])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[groups]) {
					t.Errorf("goroutine %d: the %d-group stream differs from its golden", w, groups)
				}
			}
		}()
	}
	wg.Wait()
}
