package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/server"
)

// codesign runs POST /v1/optimize over a rotation of design spaces whose
// searches the set-up has already answered, so every timed search is an
// engine hit.
type codesign struct {
	in        *inputs
	spaces    []optimize.DesignSpace
	want      [][]optimize.FrontierPoint // brute-force frontier per space
	setUpResp [][]byte                   // the last set-up's answer per space, until a sink takes it
}

// codesignBuf bounds one codesign response in the sink's buffer.
const codesignBuf = 4 << 20

func (w *codesign) prepare(seed uint64, n int) error {
	var err error
	if w.in, err = genCodesign(seed, n); err != nil {
		return err
	}
	for _, net := range codesignSpaces {
		n, err := model.ByName(net)
		if err != nil {
			return err
		}
		s := optimize.DesignSpace{
			Name:    "codesign-" + net,
			Network: n,
			Arrays:  []core.Array{{Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}},
			Chips:   []int{1, 4},
			Gating:  []bool{false, true},
			Groups:  2,
		}
		s.Normalize()
		w.spaces = append(w.spaces, s)
	}
	pts, err := w.evaluateAll(optimize.New(compile.New(engine.New())))
	if err != nil {
		return err
	}
	for _, p := range pts {
		w.want = append(w.want, nonDominated(p))
	}
	return nil
}

// evaluateAll scores every design point of every space with o, which runs
// on its own compiler and engine.
func (w *codesign) evaluateAll(o *optimize.Optimizer) ([][]optimize.FrontierPoint, error) {
	out := make([][]optimize.FrontierPoint, len(w.spaces))
	for s, space := range w.spaces {
		for _, d := range optimize.Designs(space) {
			p, err := o.Evaluate(context.Background(), space, d)
			if err != nil {
				return nil, err
			}
			out[s] = append(out[s], p)
		}
	}
	return out, nil
}

// nonDominated is the brute-force Pareto filter the served frontiers are
// checked against: a point survives unless another is no worse on cycles,
// energy and area and either better on one of them or enumerated first. The
// survivors are ordered by cycles, energy, area and ID.
func nonDominated(pts []optimize.FrontierPoint) []optimize.FrontierPoint {
	var out []optimize.FrontierPoint
	for _, p := range pts {
		beaten := false
		for _, q := range pts {
			a, b := q.Metrics, p.Metrics
			if q.ID != p.ID && a.Cycles <= b.Cycles && a.EnergyJ <= b.EnergyJ && a.AreaCells <= b.AreaCells &&
				(a != b || q.ID < p.ID) {
				beaten = true
				break
			}
		}
		if !beaten {
			out = append(out, p)
		}
	}
	less := func(a, b optimize.FrontierPoint) bool {
		switch {
		case a.Metrics.Cycles != b.Metrics.Cycles:
			return a.Metrics.Cycles < b.Metrics.Cycles
		case a.Metrics.EnergyJ != b.Metrics.EnergyJ:
			return a.Metrics.EnergyJ < b.Metrics.EnergyJ
		case a.Metrics.AreaCells != b.Metrics.AreaCells:
			return a.Metrics.AreaCells < b.Metrics.AreaCells
		}
		return a.ID < b.ID
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (w *codesign) inputs() *inputs { return w.in }

func (w *codesign) setUp() (*server.Server, error) {
	srv := server.New(server.Config{})
	w.setUpResp = make([][]byte, len(w.spaces))
	for s := range w.spaces {
		b := w.in.buf[w.in.off[s]:w.in.off[s+1]]
		data, err := post(srv, w.in.path, b)
		if err != nil {
			return nil, err
		}
		w.setUpResp[s] = data
	}
	return srv, nil
}

func (w *codesign) close() {}

// checkStream verifies one /v1/optimize response for space s: NDJSON
// events, one per evaluated point or eviction, then a final frontier equal
// to the brute-force one. It returns the frontier.
func (w *codesign) checkStream(s int, data []byte) (*optimize.Frontier, error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var final struct {
		Event    string             `json:"event"`
		Frontier *optimize.Frontier `json:"frontier"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		return nil, err
	}
	f := final.Frontier
	if final.Event != "frontier" || f == nil {
		return nil, fmt.Errorf("stream ends with %q, not the frontier", final.Event)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if want := len(optimize.Designs(w.spaces[s])); f.Evaluated != want || len(lines)-1 != f.Evaluated+f.Evicted {
		return nil, fmt.Errorf("%d events for %d points (%d evaluated, %d evicted)", len(lines)-1, want, f.Evaluated, f.Evicted)
	}
	want := w.want[s]
	if len(f.Points) != len(want) {
		return nil, fmt.Errorf("frontier of %s has %d points, brute force %d", w.spaces[s].Name, len(f.Points), len(want))
	}
	for i, p := range f.Points {
		q := want[i]
		if p.ID != q.ID || p.Chips != q.Chips || p.Gated != q.Gated || p.Metrics != q.Metrics || fmt.Sprint(p.Arrays) != fmt.Sprint(q.Arrays) {
			return nil, fmt.Errorf("frontier of %s: point %d is %+v, brute force %+v", w.spaces[s].Name, i, p, q)
		}
	}
	return f, nil
}

// codesignSink compares every response with the verified answer for its
// space, byte for byte, as it finishes.
type codesignSink struct {
	bodyBuf
	w      *codesign
	c      *checks
	ref    [][]byte // verified response per space, off the heap
	points []int64  // frontier size per space
	cycles []int64  // Σ frontier cycles per space
	seen   []bool
}

func (w *codesign) newSink(_ *server.Server, c *checks, _ *recorder) (sink, error) {
	b, err := newBodyBuf(codesignBuf)
	if err != nil {
		return nil, err
	}
	s := &codesignSink{bodyBuf: b, w: w, c: c,
		ref: make([][]byte, len(w.spaces)), points: make([]int64, len(w.spaces)),
		cycles: make([]int64, len(w.spaces)), seen: make([]bool, len(w.spaces))}
	for sp, data := range w.setUpResp {
		f, err := w.checkStream(sp, data)
		if err != nil {
			return nil, err
		}
		if s.ref[sp], err = offHeap[byte](len(data)); err != nil {
			return nil, err
		}
		copy(s.ref[sp], data)
		s.points[sp] = int64(len(f.Points))
		for _, p := range f.Points {
			s.cycles[sp] += p.Metrics.Cycles
		}
	}
	w.setUpResp = nil
	return s, nil
}

func (s *codesignSink) end(i int) {
	sp := s.w.in.seq[i]
	if !s.is(s.ref[sp]) {
		s.c.fail(i, "status %d, stream differs from the verified frontier of %s", s.status, s.w.spaces[sp].Name)
		return
	}
	s.seen[sp] = true
	s.c.frontierPoints += s.points[sp]
	s.c.streamBytes += int64(s.n)
}

func (s *codesignSink) full() bool { return false }

func (s *codesignSink) flush() { s.c.cycles = seenCycles(s.seen, s.cycles) }

// newReplay replays a codesign request: the space decode, then
// Optimizer.Evaluate of every design point on a replica optimizer, which
// first scores every point once so that its engine is as warm as the
// set-up leaves the server's.
func (w *codesign) newReplay(rec *recorder) (func(int, time.Duration) error, error) {
	replica := optimize.New(compile.New(engine.New()))
	if _, err := w.evaluateAll(replica); err != nil {
		return nil, err
	}
	return func(i int, serve time.Duration) error {
		ctx, sp := rec.start("replay")
		defer sp.End()
		body := w.in.body(i)
		var space optimize.DesignSpace
		dDecode, err := rec.call(ctx, "optimize.FromJSON", func() (err error) {
			space, err = optimize.FromJSON(body)
			return err
		})
		if err != nil {
			return err
		}
		rest := serve - dDecode
		for _, d := range optimize.Designs(space) {
			dp, err := rec.call(ctx, "Optimizer.Evaluate", func() error {
				_, err := replica.Evaluate(context.Background(), space, d)
				return err
			})
			if err != nil {
				return err
			}
			rec.add("optimize.point_us", us(dp))
			rest -= dp
		}
		rec.add("server.decode_us", us(dDecode))
		rec.add("server.handler_us", us(rest))
		return nil
	}, nil
}
