package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/model"
)

// sweepRequest is the POST /v1/sweep body (and the "sweep" member of a job
// submission): the cross product of networks × arrays × variants, each
// element in the same form the compile endpoint accepts. An empty variants
// list falls back to options.variant (or the scheme's default search) once
// per (network, array); variants other than "full" only make sense with the
// (default) vw scheme.
type sweepRequest struct {
	Networks []json.RawMessage `json:"networks"`
	Arrays   []json.RawMessage `json:"arrays"`
	Variants []string          `json:"variants"`
	Options  *requestOptions   `json:"options"`
}

// maxSweepCells bounds one sweep request's cross product.
const maxSweepCells = 4096

// sweepCell is one resolved (network, array, variant) combination — a
// compile.Request plus the wire-form variant name the summary echoes.
type sweepCell struct {
	req     compile.Request
	variant string
}

// sweepSummary is one NDJSON line of the sweep stream (and one entry of a
// sweep job's results): the cell identity plus its plan totals, or the
// per-cell error. Errors are per cell so one failing combination reports
// itself in-line instead of tearing down the whole stream.
type sweepSummary struct {
	Network        string  `json:"network"`
	Array          string  `json:"array"`
	Scheme         string  `json:"scheme"`
	Variant        string  `json:"variant,omitempty"`
	Cycles         int64   `json:"cycles,omitempty"`
	Im2colCycles   int64   `json:"im2col_cycles,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	UtilizationPct float64 `json:"utilization_pct,omitempty"`
	Makespan       int64   `json:"makespan,omitempty"`
	EnergyTotalJ   float64 `json:"energy_total_j,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// cells resolves the request's cross product up front, so reference errors
// surface as one structured 422 before the stream commits to a 200 (or a
// job is accepted).
func (req *sweepRequest) cells() ([]sweepCell, *httpError) {
	if len(req.Networks) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, `missing "networks"`)
	}
	if len(req.Arrays) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, `missing "arrays"`)
	}
	base, herr := req.Options.compileOptions()
	if herr != nil {
		return nil, herr
	}
	// An explicit variants list wins; otherwise a single options.variant
	// applies to every cell (it must not be silently clobbered — the same
	// field is honored by /v1/compile), and the default is the full search.
	variants := req.Variants
	if len(variants) == 0 {
		if req.Options != nil && req.Options.Variant != "" {
			variants = []string{req.Options.Variant}
		} else {
			variants = []string{""}
		}
	}
	networks := make([]model.Network, len(req.Networks))
	for i, raw := range req.Networks {
		n, herr := resolveNetworkRef(raw)
		if herr != nil {
			return nil, herr
		}
		networks[i] = n
	}
	arrays := make([]core.Array, len(req.Arrays))
	for i, raw := range req.Arrays {
		a, herr := resolveArrayRef(raw)
		if herr != nil {
			return nil, herr
		}
		arrays[i] = a
	}
	total := len(networks) * len(arrays) * len(variants)
	if total > maxSweepCells {
		return nil, errorf(http.StatusUnprocessableEntity,
			"sweep of %d cells exceeds the %d-cell limit", total, maxSweepCells)
	}
	cells := make([]sweepCell, 0, total)
	for _, n := range networks {
		for _, a := range arrays {
			for _, vName := range variants {
				v, err := compile.ParseVariant(vName)
				if err != nil {
					return nil, errorf(http.StatusUnprocessableEntity, "%v", err)
				}
				opts := base
				opts.Variant = v
				cells = append(cells, sweepCell{req: compile.NewRequest(n, a, opts), variant: vName})
			}
		}
	}
	return cells, nil
}

// runSweep is the one sweep executor behind both the synchronous NDJSON
// stream and sweep jobs: it fans cells out through fanout.Each on at most
// one worker per compilation slot, dispatching no cell after ctx ends, and
// delivers each cell's summary to emit in completion order as soon as its
// compilation (or cache hit) finishes. A cell cut short by the context's
// end is incomplete, not failed, and is not emitted. It returns ctx's error
// when the sweep was cut short, nil when every cell was delivered. emit
// runs on the worker that finished the cell, one call at a time, and never
// after runSweep returns: fanout.Each returns only after every worker has.
func (s *Server) runSweep(ctx context.Context, cells []sweepCell, emit func(sweepSummary)) error {
	var (
		mu        sync.Mutex
		delivered int
	)
	fanout.Each(ctx, len(cells), cap(s.sem), func(i int) error {
		if sum, err := s.runCell(ctx, cells[i]); err == nil {
			mu.Lock()
			delivered++
			emit(sum)
			mu.Unlock()
		}
		return nil
	})
	if delivered == len(cells) {
		// Every cell was delivered: the sweep is complete even if the
		// context expired in the instant after the last cell finished.
		return nil
	}
	return ctx.Err()
}

// handleSweep streams one NDJSON summary per cell, in completion order,
// through runSweep — the same machinery sweep jobs use. A sweep cut short
// by the per-request deadline ends with one error line so a
// still-connected client can tell the stream from a complete one.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if herr := decodeJSONBody(w, r, s.maxBody, &req); herr != nil {
		writeError(w, herr)
		return
	}
	cells, herr := req.cells()
	if herr != nil {
		writeError(w, herr)
		return
	}
	s.stream(w, r, "sweep", func(ctx context.Context, out *ndjson) {
		err := s.runSweep(ctx, cells, func(sum sweepSummary) { out.line(sum) })
		if errors.Is(err, context.DeadlineExceeded) {
			out.line(sweepSummary{Error: fmt.Sprintf("sweep aborted: %v", err)})
		}
	})
}

// stream is the one NDJSON streamer behind /v1/sweep and /v1/optimize. It
// admits the stream through the sweep-stream semaphore (one unit per
// stream, sized like the compilation pool; beyond it a structured 503
// naming what is streamed), commits the 200 at once — the client sees it
// when the stream is admitted, not when the first, possibly slow, line
// lands — and runs produce under the request's context, so a dropped
// connection stops the producer and frees every slot. produce writes every
// line of the stream, its final line included, through out.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, what string, produce func(ctx context.Context, out *ndjson)) {
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		s.rejected.Add(1)
		writeError(w, errorf(http.StatusServiceUnavailable,
			"server at capacity: all %d concurrent %s streams are taken", cap(s.sweepSem), what))
		return
	}
	ctx, cancel := s.requestContext(r.Context())
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := ndjsonPool.Get().(*ndjson)
	out.w, out.broken = w, false
	out.flusher, _ = w.(http.Flusher)
	if out.flusher != nil {
		out.flusher.Flush()
	}
	produce(ctx, out)
	out.w, out.flusher = nil, nil
	ndjsonPool.Put(out)
}

// ndjson is one NDJSON response stream: a reusable line buffer and encoder
// plus the response they write to. Streams are pooled, so a stream pays no
// per-stream encoder allocation.
type ndjson struct {
	buf     bytes.Buffer
	enc     *json.Encoder // line's encoder, writing into buf
	w       io.Writer
	flusher http.Flusher
	broken  bool // the client has gone: later lines are dropped so the producer can drain
}

var ndjsonPool = sync.Pool{New: func() any {
	out := &ndjson{}
	out.enc = json.NewEncoder(&out.buf)
	return out
}}

// line writes v as one NDJSON line encoded by encoding/json: the sweep
// summaries and the error lines.
func (out *ndjson) line(v any) {
	out.buf.Reset()
	out.write(out.enc.Encode(v))
}

// appendLine writes the one NDJSON line that appendTo appends to an empty
// buffer: the /v1/optimize lines, whose appenders need no reflection.
func (out *ndjson) appendLine(appendTo func([]byte) ([]byte, error)) {
	out.buf.Reset()
	b, err := appendTo(out.buf.AvailableBuffer())
	out.buf.Write(b) // b is buf's own storage unless appendTo outgrew it
	out.write(err)
}

// write is the one write-and-flush path: unless encoding the line in buf
// failed, it writes the line in a single Write call and flushes it. After a
// failed encode or write every later line is dropped.
func (out *ndjson) write(err error) {
	if out.broken {
		return
	}
	if err == nil {
		_, err = out.w.Write(out.buf.Bytes())
	}
	if err != nil {
		out.broken = true
		return
	}
	if out.flusher != nil {
		out.flusher.Flush()
	}
}

// runCell compiles one sweep cell through the plan cache (blocking
// admission — the cells belong to one already-admitted request or job) and
// summarizes its totals. A context end is returned as the error — the cell
// is incomplete, not failed; every other failure is folded into the
// summary's Error field so the sweep keeps going.
func (s *Server) runCell(ctx context.Context, c sweepCell) (sweepSummary, error) {
	sum := sweepSummary{
		Network: c.req.Network.Name,
		Array:   c.req.Array.String(),
		Scheme:  c.req.Options.Scheme.String(),
		Variant: c.variant,
	}
	key, err := compile.Key(c.req)
	if err != nil {
		sum.Error = err.Error()
		return sum, nil
	}
	entry, cached, err := s.compilePlan(ctx, key, c.req, true, false)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return sweepSummary{}, err
		}
		sum.Error = err.Error()
		return sum, nil
	}
	t := &entry.totals
	sum.Cycles = t.Cycles
	sum.Im2colCycles = t.Im2colCycles
	sum.Speedup = t.Speedup
	sum.UtilizationPct = t.Utilization
	sum.Makespan = t.Makespan
	sum.EnergyTotalJ = t.Energy.EnergyTotal
	sum.Cached = cached
	return sum, nil
}
