package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chip"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// coldExplore explores array geometries: every request compiles a zoo
// network on a grid array it has not seen, against a default server.
type coldExplore struct {
	reqs   []compileReq
	in     *inputs
	oracle map[int]int // request → layer checked against the exhaustive sweep
}

// oracleChecks is how many layer decisions a cold-explore run checks against
// core.SearchVWSDKExhaustive.
const oracleChecks = 64

// coldArena holds the responses of one cold-explore window until they are
// checked; coldHeadroom is the space a window keeps free for one more
// response, far above the largest zoo plan; coldHeld bounds the responses
// a window holds.
const (
	coldArena    = 32 << 20
	coldHeadroom = 2 << 20
	coldHeld     = 4096
)

func (w *coldExplore) prepare(seed uint64, n int) error {
	var err error
	if w.reqs, w.in, err = genColdExplore(seed, n); err != nil {
		return err
	}
	r := newRand(seed, "cold-explore-oracle")
	w.oracle = make(map[int]int, oracleChecks)
	for len(w.oracle) < min(oracleChecks, n) {
		i := r.IntN(n)
		w.oracle[i] = r.IntN(len(zooNets[w.reqs[i].net].Layers))
	}
	return nil
}

func (w *coldExplore) inputs() *inputs { return w.in }

func (w *coldExplore) setUp() (*server.Server, error) { return server.New(server.Config{}), nil }

func (w *coldExplore) close() {}

// coldSink copies every response into an off-heap arena and decodes them
// after the window closes, so the checks' allocations stay out of the
// measured windows.
type coldSink struct {
	respWriter
	w     *coldExplore
	c     *checks
	rec   *recorder
	arena []byte
	used  int
	held  []heldResp
	nHeld int
	over  bool
}

// heldResp is one response waiting in the arena.
type heldResp struct {
	i, start, end, status int
	overflow              bool
}

func (w *coldExplore) newSink(_ *server.Server, c *checks, rec *recorder) (sink, error) {
	s := &coldSink{respWriter: respWriter{header: http.Header{}}, w: w, c: c, rec: rec}
	var err error
	if s.arena, err = offHeap[byte](coldArena); err != nil {
		return nil, err
	}
	if s.held, err = offHeap[heldResp](coldHeld); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *coldSink) begin(i int) {
	s.reset()
	s.held[s.nHeld] = heldResp{i: i, start: s.used, end: s.used}
	s.over = false
}

func (s *coldSink) Write(p []byte) (int, error) {
	s.wrote()
	if s.used+len(p) > len(s.arena) {
		s.over = true
		return len(p), nil
	}
	s.used += copy(s.arena[s.used:], p)
	return len(p), nil
}

func (s *coldSink) end(int) {
	h := &s.held[s.nHeld]
	h.end, h.status, h.overflow = s.used, s.status, s.over
	s.nHeld++
}

func (s *coldSink) full() bool {
	return s.nHeld == len(s.held) || len(s.arena)-s.used < coldHeadroom
}

// flush checks every held response: it must be a 200 whose body decodes with
// compile.FromJSON (which re-validates the totals) into the plan of the
// requested key, and sampled layer decisions must match the exhaustive
// sweep. Outside the traced run, whose recorder is single-threaded, the
// checks use every processor: decoding a plan costs about as much as
// serving it.
func (s *coldSink) flush() {
	held := s.held[:s.nHeld]
	errs := make([]error, len(held))
	cycles := make([]int64, len(held))
	workers := runtime.GOMAXPROCS(0)
	if s.rec != nil {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(held); k = int(next.Add(1) - 1) {
				cycles[k], errs[k] = s.check(held[k])
			}
		}()
	}
	wg.Wait()
	for k, h := range held {
		if errs[k] != nil {
			s.c.fail(h.i, "%v", errs[k])
		}
		s.c.cycles += cycles[k]
	}
	s.used, s.nHeld = 0, 0
}

// check checks one held response and returns its plan's total cycles.
func (s *coldSink) check(h heldResp) (int64, error) {
	data := s.arena[h.start:h.end]
	if h.status != http.StatusOK || h.overflow {
		return 0, fmt.Errorf("status %d (overflow %v): %.200s", h.status, h.overflow, data)
	}
	var plan *compile.NetworkPlan
	decode := func() (err error) { plan, err = compile.FromJSON(data); return err }
	var err error
	if s.rec != nil {
		var d time.Duration
		d, err = s.rec.call(s.rec.ctx, "compile.FromJSON", decode)
		s.rec.add("compile.fromjson_us", us(d))
	} else {
		err = decode()
	}
	if err != nil {
		return 0, err
	}
	q := s.w.reqs[h.i]
	want, err := compile.Key(q.request())
	if err != nil {
		return 0, err
	}
	if got, err := compile.Key(plan.Request); err != nil || got != want {
		return 0, fmt.Errorf("plan answers another request (%v)", err)
	}
	if j, ok := s.w.oracle[h.i]; ok {
		l := zooNets[q.net].Layers[j].Layer
		ex, err := core.SearchVWSDKExhaustive(l, plan.Array)
		if err != nil {
			return 0, err
		}
		if got := plan.Layers[j].Search; got.Best != ex.Best || got.Im2col != ex.Im2col {
			return 0, fmt.Errorf("layer %s on %v: served %v, exhaustive sweep %v", l.Name, plan.Array, got.Best, ex.Best)
		}
	}
	return plan.Totals.Cycles, nil
}

// newReplay replays a cold request on fresh replicas: the server's decode,
// plan-cache lookup and key, then the compile the miss runs, each layer's
// search, schedule and energy estimate, and the encode. The compile runs
// twice: once on an engine configured like the server's, for compile_ms and
// the handler's remainder, and once at GOMAXPROCS 1 on an engine without a
// result cache, so that it searches every layer serially and the per-layer
// replays subtract from it cleanly into compile.overhead_ms.
func (w *coldExplore) newReplay(rec *recorder) (func(int, time.Duration) error, error) {
	replica := server.New(server.Config{})
	comp := compile.New(engine.New())
	serial := compile.New(engine.New(engine.WithCacheSize(0)))
	var buf bytes.Buffer
	return func(i int, serve time.Duration) error {
		ctx, sp := rec.start("replay")
		defer sp.End()
		l, err := replayLookup(ctx, rec, replica, w.in.body(i))
		if err != nil || l.hit {
			return fmt.Errorf("replay of cold request %d: hit %v, err %v", i, l.hit, err)
		}
		var plan *compile.NetworkPlan
		dCompile, err := rec.call(ctx, "Compiler.Compile", func() (err error) {
			plan, err = comp.Compile(context.Background(), l.req)
			return err
		})
		if err != nil {
			return err
		}
		procs := runtime.GOMAXPROCS(1)
		dSerial, err := rec.call(ctx, "Compiler.Compile (GOMAXPROCS 1)", func() error {
			_, err := serial.Compile(context.Background(), l.req)
			return err
		})
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return err
		}
		layers, calls, err := replayLayers(ctx, rec, plan)
		if err != nil {
			return err
		}
		buf.Reset()
		dEncode, err := rec.call(ctx, "NetworkPlan.Encode", func() error { return plan.Encode(&buf) })
		if err != nil {
			return err
		}
		rec.add("compile.compile_ms", ms(dCompile))
		rec.add("compile.overhead_ms", ms(dSerial-layers))
		rec.add("core.cost_model_calls_per_req", float64(calls))
		rec.add("compile.encode_us", us(dEncode))
		rec.add("compile.plan_kb", float64(buf.Len())/1024)
		rec.add("server.handler_us", us(serve-l.decode-l.cached-l.key-dCompile-dEncode))
		return nil
	}, nil
}

// lookup is the replay of a compile request up to its plan-cache lookup.
type lookup struct {
	req                 compile.Request
	hit                 bool
	decode, cached, key time.Duration
}

// replayLookup replays what the server does with a /v1/compile body before
// it compiles: the body decode, timed as server.ParseManifest of a
// one-entry manifest less the decode of the manifest wrapper alone, then
// Server.CachedPlan on replica, then compile.Key, which the server builds
// only on a miss. It records the three per-layer samples.
func replayLookup(ctx context.Context, rec *recorder, replica *server.Server, body []byte) (lookup, error) {
	var l lookup
	wrapped := wrapManifest(body)
	dWrap, err := rec.call(ctx, "manifest wrapper", func() error {
		var m server.Manifest
		return json.Unmarshal(wrapped, &m)
	})
	if err != nil {
		return l, err
	}
	dParse, err := rec.call(ctx, "server.ParseManifest", func() error {
		_, reqs, err := server.ParseManifest(wrapped)
		if err == nil {
			l.req = reqs[0]
		}
		return err
	})
	if err != nil {
		return l, err
	}
	if l.cached, err = rec.call(ctx, "Server.CachedPlan", func() (err error) {
		l.hit, err = replica.CachedPlan(io.Discard, l.req)
		return err
	}); err != nil {
		return l, err
	}
	if l.key, err = rec.call(ctx, "compile.Key", func() error { _, err := compile.Key(l.req); return err }); err != nil {
		return l, err
	}
	l.decode = dParse - dWrap
	rec.add("server.decode_us", us(l.decode))
	rec.add("server.cached_plan_us", us(l.cached))
	rec.add("compile.key_us", us(l.key))
	return l, nil
}

// replayLayers replays each layer of plan through core, chip and energy,
// returning their summed time and the searches' cost-model calls.
func replayLayers(ctx context.Context, rec *recorder, plan *compile.NetworkPlan) (time.Duration, int, error) {
	var total time.Duration
	calls := 0
	for _, cl := range plan.Network.Layers {
		var res core.Result
		var st core.SearchStats
		d, err := rec.call(ctx, "core.SearchVWSDKInstrumented", func() (err error) {
			res, st, err = core.SearchVWSDKInstrumented(context.Background(), cl.Layer, plan.Array)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		total += d
		calls += st.CostModelCalls
		rec.count("core.pruned_share", st.Path == core.PathPruned)
		if st.Path == core.PathPruned {
			rec.add("core.pruned_us", us(d))
		} else {
			rec.add("core.closed_form_us", us(d))
		}
		d, err = rec.call(ctx, "chip.ScheduleLayer", func() error {
			_, err := chip.ScheduleLayer(res.Best, plan.Options.Arrays)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		total += d
		rec.add("chip.schedule_us", us(d))
		d, err = rec.call(ctx, "energy.Model.Estimate", func() error {
			_, err := plan.Options.Energy.Estimate(res.Best)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		total += d
		rec.add("energy.estimate_us", us(d))
	}
	return total, calls, nil
}
