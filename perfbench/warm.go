package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/server"
	"repro/internal/store"
)

// warmRestart restarts a daemon over a persistent store and serves a
// zipfian mix of the stored plans, every request a plan-cache hit.
type warmRestart struct {
	keys     []compileReq
	in       *inputs
	dir      string
	manifest []byte
	stored   [][]byte // per key: the bytes the store restores, off the heap
	cycles   []int64  // per key: the restored plan's Totals.Cycles
}

func (w *warmRestart) prepare(seed uint64, n int) error {
	var err error
	if w.keys, w.in, err = genWarmRestart(seed, n); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
		return err
	}
	// Fill the store through a server, the way a running daemon does.
	st, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	prep := server.New(server.Config{Store: st})
	bodies := make([]string, len(w.keys))
	for k := range w.keys {
		if _, err := post(prep, w.in.path, w.bodyOf(k)); err != nil {
			return err
		}
		bodies[k] = string(w.bodyOf(k))
	}
	st.Flush()
	w.manifest = []byte(`{"requests":[` + strings.Join(bodies, ",") + `]}`)
	// The checker's own handle: the restored bytes every response must equal.
	check, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	w.stored = make([][]byte, len(w.keys))
	w.cycles = make([]int64, len(w.keys))
	for k, q := range w.keys {
		key, err := compile.Key(q.request())
		if err != nil {
			return err
		}
		data, plan, ok := check.GetPlan(key)
		if !ok {
			return fmt.Errorf("store has no valid plan for %s", w.bodyOf(k))
		}
		if w.stored[k], err = offHeap[byte](len(data)); err != nil {
			return err
		}
		copy(w.stored[k], data)
		w.cycles[k] = plan.Totals.Cycles
	}
	return nil
}

// bodyOf returns the body of manifest key k (body index k of the inputs).
func (w *warmRestart) bodyOf(k int) []byte { return w.in.buf[w.in.off[k]:w.in.off[k+1]] }

func (w *warmRestart) inputs() *inputs { return w.in }

func (w *warmRestart) setUp() (*server.Server, error) {
	st, err := store.Open(w.dir)
	if err != nil {
		return nil, err
	}
	_, reqs, err := server.ParseManifest(w.manifest)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: st})
	ws, err := srv.Warm(context.Background(), reqs, 0)
	if err != nil {
		return nil, err
	}
	if ws.Total != len(w.keys) || ws.Hits != ws.Total {
		return nil, fmt.Errorf("warm restored %d of %d plans (%+v)", ws.Hits, len(w.keys), ws)
	}
	return srv, nil
}

func (w *warmRestart) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// warmSink compares each response with the bytes the store restored.
type warmSink struct {
	bodyBuf
	w    *warmRestart
	c    *checks
	seen []bool
}

func (w *warmRestart) newSink(srv *server.Server, c *checks, _ *recorder) (sink, error) {
	size := 0
	for k, q := range w.keys {
		if ok, err := srv.CachedPlan(io.Discard, q.request()); err != nil || !ok {
			return nil, fmt.Errorf("plan %s not cached after set-up (%v)", w.bodyOf(k), err)
		}
		size = max(size, len(w.stored[k]))
	}
	b, err := newBodyBuf(size)
	return &warmSink{bodyBuf: b, w: w, c: c, seen: make([]bool, len(w.keys))}, err
}

func (s *warmSink) end(i int) {
	k := s.w.in.seq[i]
	if !s.is(s.w.stored[k]) {
		s.c.fail(i, "status %d, response differs from the stored plan %s", s.status, s.w.bodyOf(int(k)))
		return
	}
	s.seen[k] = true
}

func (s *warmSink) full() bool { return false }

func (s *warmSink) flush() { s.c.cycles = seenCycles(s.seen, s.w.cycles) }

// newReplay replays a warm hit on a second restored server: the decode, the
// plan-cache lookup that hits and compile.Key, which a hit does not call
// (the lookup builds its key in a pooled buffer) and which is therefore not
// taken from the handler's remainder. Building the replay also replays the
// set-up's loads, Store.GetPlan and compile.FromJSON of every stored plan.
func (w *warmRestart) newReplay(rec *recorder) (func(int, time.Duration) error, error) {
	replica, err := w.setUp()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(w.dir)
	if err != nil {
		return nil, err
	}
	ctx, sp := rec.start("set-up replay")
	for _, q := range w.keys {
		key, err := compile.Key(q.request())
		if err != nil {
			return nil, err
		}
		var data []byte
		d, err := rec.call(ctx, "Store.GetPlan", func() error {
			var ok bool
			if data, _, ok = st.GetPlan(key); !ok {
				return fmt.Errorf("store miss for %s", key)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rec.add("store.get_us", us(d))
		d, err = rec.call(ctx, "compile.FromJSON", func() error { _, err := compile.FromJSON(data); return err })
		if err != nil {
			return nil, err
		}
		rec.add("compile.fromjson_us", us(d))
	}
	sp.End()
	return func(i int, serve time.Duration) error {
		ctx, sp := rec.start("replay")
		defer sp.End()
		l, err := replayLookup(ctx, rec, replica, w.in.body(i))
		if err != nil || !l.hit {
			return fmt.Errorf("replay of warm request %d: hit %v, err %v", i, l.hit, err)
		}
		rec.add("server.handler_us", us(serve-l.decode-l.cached))
		return nil
	}, nil
}
