package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one Chrome trace-event ("X" complete events plus one "M"
// process-name metadata event). The format is the trace-event JSON that
// chrome://tracing and Perfetto's legacy importer open directly:
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   int64          `json:"ts"`            // µs since trace start
	Dur  int64          `json:"dur,omitempty"` // µs
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the file layout: the object form, so viewers that expect
// metadata keep working.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the trace in Chrome trace-event JSON format. Spans
// become "X" (complete) events; each top-level span and its descendants
// share one tid lane, so concurrent top-level work (per-layer searches, the
// bench harness's workloads) renders as parallel tracks while nesting within
// a lane stays correct — within one top-level span, child spans run on the
// goroutine that started it and nest by containment.
func (t *Trace) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	doc := chromeDoc{
		TraceEvents:     make([]chromeEvent, 1, t.spans.n+1),
		DisplayTimeUnit: "ms",
	}
	doc.TraceEvents[0] = chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": t.name},
	}
	// Span i is event i+1, and its tid is its lane: top-level spans open
	// their own lane, children inherit. Spans are recorded in start order,
	// so a parent always precedes its children.
	for i, s := range t.spans.all() {
		tid := i + 1
		if s.parent >= 0 {
			tid = doc.TraceEvents[s.parent+1].Tid
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.name,
			Ph:   "X",
			Pid:  1,
			Tid:  tid,
			Ts:   s.start.Microseconds(),
			Dur:  s.Duration().Microseconds(),
		})
	}
	for _, a := range t.attrs.all() {
		ev := &doc.TraceEvents[a.span+1]
		if ev.Args == nil {
			ev.Args = make(map[string]any)
		}
		ev.Args[a.key] = a.value()
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(doc)
}
