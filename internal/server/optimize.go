package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/optimize"
)

// The POST /v1/optimize surface: the body is a design-space spec in the
// optimize.FromJSON wire format (network, candidate arrays, chip counts,
// gating, layer groups) and the response is an NDJSON stream of frontier
// events — one line per admitted, evicted or rejected design point, as the
// enumeration makes each decision — terminated by one "frontier" line
// carrying the final Pareto frontier. Optimize runs are admitted through the
// sweep-stream semaphore (they are long fan-out requests of the same shape)
// and run through the server's shared compiler, so the layer searches of
// every group compile land in the same engine memoization the compile and
// sweep endpoints warm.

// optimizeError is the stream's error line, appended when the search is cut
// short after the 200 is already committed.
type optimizeError struct {
	Kind  string `json:"event"`
	Error string `json:"error"`
}

// resolveOptimizeSpace parses the raw body bytes as a design space; failures
// are 422s (the body was valid JSON — 400 was decodeJSONBody's job — but
// describes a space that cannot be searched).
func resolveOptimizeSpace(raw json.RawMessage) (optimize.DesignSpace, *httpError) {
	if len(raw) == 0 {
		return optimize.DesignSpace{}, errorf(http.StatusUnprocessableEntity,
			`missing design space: give {"network", "arrays", ...}`)
	}
	space, err := optimize.FromJSON(raw)
	if err != nil {
		return optimize.DesignSpace{}, errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	return space, nil
}

// runOptimize is the one optimize executor behind the stream and optimize
// jobs: it counts the run and every frontier event into the optimize
// counters, hands each event to emit, and returns the final frontier.
func (s *Server) runOptimize(ctx context.Context, space optimize.DesignSpace, emit func(optimize.Event)) (*optimize.Frontier, error) {
	s.optRuns.Add(1)
	return s.opt.Run(ctx, space, func(e optimize.Event) {
		switch e.Kind {
		case "admit":
			s.optAdmitted.Add(1)
		case "reject":
			s.optRejected.Add(1)
		case "evict":
			s.optEvicted.Add(1)
		}
		emit(e)
	})
}

// handleOptimize streams one optimize search as NDJSON frontier events
// through the shared streamer. A complete search ends with the "frontier"
// line; one cut short (deadline, cancellation or a failing design point)
// ends with one error line instead of a silent truncation, when the
// connection still exists. The event and frontier lines are written by
// optimize.AppendEvent and AppendFinal, the error line by encoding/json.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if herr := decodeJSONBody(w, r, s.maxBody, &raw); herr != nil {
		writeError(w, herr)
		return
	}
	space, herr := resolveOptimizeSpace(raw)
	if herr != nil {
		writeError(w, herr)
		return
	}
	s.stream(w, r, "optimize/sweep", func(ctx context.Context, out *ndjson) {
		f, err := s.runOptimize(ctx, space, func(e optimize.Event) {
			out.appendLine(func(dst []byte) ([]byte, error) { return optimize.AppendEvent(dst, e) })
		})
		if err != nil {
			out.line(optimizeError{Kind: "error", Error: fmt.Sprintf("optimize aborted: %v", err)})
			return
		}
		out.appendLine(func(dst []byte) ([]byte, error) { return optimize.AppendFinal(dst, f) })
	})
}
