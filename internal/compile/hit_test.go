package compile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// countingSearcher is an engine that counts, per layer name, the hit probes
// it serves or refuses and the searches it runs.
type countingSearcher struct {
	e *engine.Engine

	mu                     sync.Mutex
	probes, hits, searches map[string]int
}

func newCountingSearcher() *countingSearcher {
	s := &countingSearcher{e: engine.New()}
	s.reset()
	return s
}

func (s *countingSearcher) reset() {
	s.mu.Lock()
	s.probes, s.hits, s.searches = map[string]int{}, map[string]int{}, map[string]int{}
	s.mu.Unlock()
}

func (s *countingSearcher) Hit(ctx context.Context, l core.Layer, a core.Array, m core.Method, dst *core.Result) bool {
	hit := s.e.Hit(ctx, l, a, m, dst)
	s.mu.Lock()
	s.probes[l.Name]++
	if hit {
		s.hits[l.Name]++
	}
	s.mu.Unlock()
	return hit
}

func (s *countingSearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	s.mu.Lock()
	s.searches[l.Name]++
	s.mu.Unlock()
	return s.e.Search(ctx, l, a, m)
}

// TestCompileLooksUpEachLayerOnce: on a searcher that serves hits in place,
// a warm compile probes every layer once and searches none, and a cold
// compile probes each layer at most once and searches it at most once,
// every layer served by one of the two. Every zoo network, at GOMAXPROCS 1
// and 2.
func TestCompileLooksUpEachLayerOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range model.All() {
			s := newCountingSearcher()
			c := New(s)
			req := NewRequest(n, array512, Options{})
			for _, pass := range []string{"cold", "warm"} {
				s.reset()
				if _, err := c.Compile(bg, req); err != nil {
					t.Fatal(err)
				}
				for _, cl := range n.Layers {
					name := cl.Name
					probes, hits, searches := s.probes[name], s.hits[name], s.searches[name]
					warmOK := probes == 1 && hits == 1 && searches == 0
					coldOK := probes <= 1 && searches <= 1 && hits+searches == 1
					if pass == "warm" && !warmOK || pass == "cold" && !coldOK {
						t.Errorf("GOMAXPROCS %d, %s %s layer %s: %d probes (%d served) and %d searches",
							procs, pass, n.Name, name, probes, hits, searches)
					}
				}
			}
		}
	}
}

// shapeOf is a layer's engine cache identity on one array and method: its
// normalized shape without the name.
func shapeOf(cl model.ConvLayer) core.Layer {
	l := cl.Layer.Normalized()
	l.Name = ""
	return l
}

// TestCompilePartlyWarm compiles VGG-13 and MobileNet-V2 at GOMAXPROCS 2 on
// engines that hold the searches of every other layer, the first among
// them: the hit pass serves the first layer and the fan-out the rest, hits
// and misses mixed. The plan must encode to a cold compile's bytes, the
// counters must grow by one search per layer, one hit per warmed layer and
// one miss per other shape, and a traced compile must record one layer →
// search → engine.search chain per network layer, a hit where the shape
// was warmed.
func TestCompilePartlyWarm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []model.Network{model.VGG13(), model.MobileNetV2()} {
		req := NewRequest(n, array512, Options{})
		cold, err := New(engine.New()).Compile(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := AppendPlan(nil, cold)
		if err != nil {
			t.Fatal(err)
		}
		warmed := model.Network{Name: n.Name}
		for i := 0; i < len(n.Layers); i += 2 {
			warmed.Layers = append(warmed.Layers, n.Layers[i])
		}
		warm := map[core.Layer]bool{}
		for _, cl := range warmed.Layers {
			warm[shapeOf(cl)] = true
		}
		others := map[core.Layer]bool{}
		for _, cl := range n.Layers {
			if !warm[shapeOf(cl)] {
				others[shapeOf(cl)] = true
			}
		}
		for _, traced := range []bool{false, true} {
			e := engine.New()
			c := New(e)
			if _, err := c.Compile(bg, NewRequest(warmed, array512, Options{})); err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			tr := obs.New("test")
			ctx := bg
			if traced {
				ctx = obs.NewContext(bg, tr)
			}
			p, err := c.Compile(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendPlan(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, traced %v: a partly warm compile differs from a cold one", n.Name, traced)
			}
			st := e.Stats()
			layers := uint64(len(n.Layers))
			if st.Searches-before.Searches != layers || st.CacheMisses-before.CacheMisses != uint64(len(others)) ||
				st.CacheHits-before.CacheHits != layers-uint64(len(others)) {
				t.Errorf("%s, traced %v: stats %+v -> %+v, want %d searches, %d misses and the rest hits",
					n.Name, traced, before, st, layers, len(others))
			}
			if traced {
				checkLayerChains(t, tr, n, warm)
			}
		}
	}
}

// checkLayerChains checks a traced compile of n: one compile span with one
// layer span per network layer, in any order, each with one search span
// holding one engine.search span. A warmed shape's outcome is hit; each
// other shape is a miss once and a hit or a join wherever it repeats.
func checkLayerChains(t *testing.T, tr *obs.Trace, n model.Network, warm map[core.Layer]bool) {
	t.Helper()
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "compile" {
		t.Fatalf("%s: trace roots %+v, want one compile span", n.Name, roots)
	}
	byName := map[string]*obs.Node{}
	for _, l := range roots[0].Children {
		if l.Name != "layer" || byName[l.Attrs["name"].(string)] != nil {
			t.Fatalf("%s: compile child %+v, want one layer span per layer", n.Name, l)
		}
		byName[l.Attrs["name"].(string)] = l
	}
	if len(byName) != len(n.Layers) {
		t.Fatalf("%s: %d layer spans for %d layers", n.Name, len(byName), len(n.Layers))
	}
	misses := map[core.Layer]int{}
	for _, cl := range n.Layers {
		l := byName[cl.Name]
		var searches []*obs.Node
		for _, ch := range l.Children {
			if ch.Name == "search" {
				searches = append(searches, ch)
			}
		}
		if len(searches) != 1 || len(searches[0].Children) != 1 || searches[0].Children[0].Name != "engine.search" {
			t.Fatalf("%s layer %s: children %+v, want one search span over one engine.search", n.Name, cl.Name, l.Children)
		}
		es := searches[0].Children[0]
		outcome := es.Attrs["outcome"]
		switch {
		case es.Attrs["layer"] != cl.Name:
			t.Errorf("%s layer %s: engine.search attrs %v", n.Name, cl.Name, es.Attrs)
		case warm[shapeOf(cl)] && outcome != "hit":
			t.Errorf("%s layer %s: a warmed search reads outcome %v", n.Name, cl.Name, outcome)
		case outcome == "miss":
			misses[shapeOf(cl)]++
		case outcome != "hit" && outcome != "coalesced":
			t.Errorf("%s layer %s: outcome %v", n.Name, cl.Name, outcome)
		}
	}
	for _, cl := range n.Layers {
		if s := shapeOf(cl); !warm[s] && misses[s] != 1 {
			t.Errorf("%s layer %s: its shape missed %d times, want once", n.Name, cl.Name, misses[s])
		}
	}
}

// faultySearcher is the serial searcher with a hit probe, for the error
// order: Hit serves the layers named in hits, and both Hit and Search
// return an uncosted mapping for the layers named in uncosted, which their
// schedule rejects, and Search fails the layers named in fail.
type faultySearcher struct {
	hits, uncosted, fail map[string]bool
}

func (s faultySearcher) Hit(ctx context.Context, l core.Layer, a core.Array, m core.Method, dst *core.Result) bool {
	if !s.hits[l.Name] {
		return false
	}
	r, err := s.Search(ctx, l, a, m)
	*dst = r
	return err == nil
}

func (s faultySearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	if s.fail[l.Name] {
		return core.Result{}, errors.New("search failed")
	}
	if s.uncosted[l.Name] {
		return core.Result{}, nil
	}
	return core.Search(ctx, l, a, m)
}

// TestCompileErrorOrderWithHits: however layers split between the hit pass
// and the fan-out, the compile reports the lowest failing layer. VGG-13 at
// GOMAXPROCS 2: conv1 is a hit, conv2 a miss, and the hit layer conv3 and
// two later layers fail their schedule; conv2's search fails too in the
// second case.
func TestCompileErrorOrderWithHits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	n := model.VGG13()
	name := func(i int) string { return n.Layers[i].Name }
	set := func(is ...int) map[string]bool {
		m := map[string]bool{}
		for _, i := range is {
			m[name(i)] = true
		}
		return m
	}
	for _, tc := range []struct {
		s    faultySearcher
		want int
	}{
		{faultySearcher{hits: set(0, 2, 5), uncosted: set(2, 5, 8)}, 2},
		{faultySearcher{hits: set(0, 2, 5), uncosted: set(2, 5, 8), fail: set(1)}, 1},
		{faultySearcher{hits: set(0, 1, 2, 3), uncosted: set(3, 6)}, 3},
	} {
		for range 20 {
			_, err := New(tc.s).Compile(bg, NewRequest(n, array512, Options{}))
			prefix := fmt.Sprintf("compile: %s/%s: ", n.Name, name(tc.want))
			if err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("hits %v, uncosted %v, failed %v: err = %v, want layer %s's",
					tc.s.hits, tc.s.uncosted, tc.s.fail, err, name(tc.want))
			}
		}
	}
}

// TestConcurrentCompilesOneEngine: eight goroutines compile the zoo on one
// cold engine at GOMAXPROCS 2, each in its own order, so hit probes race
// in-flight searches and stores. Every plan must encode to a serial
// compile's bytes, every layer compile must be one served search, and each
// distinct search must be computed once.
func TestConcurrentCompilesOneEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const callers = 8
	nets := model.All()
	want := make([][]byte, len(nets))
	layers, shapes := 0, map[core.Layer]bool{}
	for i, n := range nets {
		p, err := New(core.Serial{}).Compile(bg, NewRequest(n, array512, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = AppendPlan(nil, p); err != nil {
			t.Fatal(err)
		}
		layers += len(n.Layers)
		for _, cl := range n.Layers {
			shapes[shapeOf(cl)] = true
		}
	}
	e := engine.New()
	c := New(e)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst NetworkPlan
			for k := range nets {
				i := (g + k) % len(nets)
				if err := c.CompileInto(bg, NewRequest(nets[i], array512, Options{}), &dst); err != nil {
					t.Error(err)
					return
				}
				if got, err := AppendPlan(nil, &dst); err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("caller %d: %s differs from a serial compile (%v)", g, nets[i].Name, err)
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Searches != uint64(callers*layers) || st.CacheMisses != uint64(len(shapes)) {
		t.Errorf("stats = %+v, want %d searches and %d misses", st, callers*layers, len(shapes))
	}
}
