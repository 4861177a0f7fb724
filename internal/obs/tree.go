package obs

import (
	"strconv"
	"time"
)

// Node is one span of the rendered span tree: the JSON form the server
// attaches to ?trace=1 responses, for the request and for a cached plan's
// compile provenance. Times are microseconds; StartUs is the offset from the
// trace's start so trees are comparable across requests.
type Node struct {
	Name     string         `json:"name"`
	StartUs  int64          `json:"start_us"`
	DurUs    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*Node        `json:"children,omitempty"`
}

// Find returns the first node named name in a depth-first walk of the
// forest, or nil.
func Find(nodes []*Node, name string) *Node {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if c := Find(n.Children, name); c != nil {
			return c
		}
	}
	return nil
}

// Tree renders the recorded spans as a forest of nested nodes in start
// order, one Node and one attribute map per span, anew on every call. Call
// it after the traced work has ended (see the package comment's lifecycle
// rules); a finished trace renders the same forest every time.
func (t *Trace) Tree() []*Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*Node, t.spans.n)
	var roots []*Node
	for i, s := range t.spans.all() {
		n := &Node{
			Name:    s.name,
			StartUs: s.start.Microseconds(),
			DurUs:   s.Duration().Microseconds(),
		}
		nodes[i] = n
		if s.parent >= 0 {
			p := nodes[s.parent]
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, a := range t.attrs.all() {
		n := nodes[a.span]
		if n.Attrs == nil {
			n.Attrs = make(map[string]any)
		}
		n.Attrs[a.key] = a.value()
	}
	return roots
}

// Phase is one top-level span's (name, duration) — the unit Server-Timing
// headers and phase rollups are built from.
type Phase struct {
	Name string
	Dur  time.Duration
}

// Phases returns the trace's top-level spans in start order as phases.
func (t *Trace) Phases() []Phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans.all() {
		if s.parent < 0 {
			n++
		}
	}
	out := make([]Phase, 0, n)
	for _, s := range t.spans.all() {
		if s.parent < 0 {
			out = append(out, Phase{Name: s.name, Dur: s.Duration()})
		}
	}
	return out
}

// NameSum is one span name's total across a trace: the summed duration of
// the spans with that name, and how many there were.
type NameSum struct {
	Name  string
	Dur   time.Duration
	Spans int
}

// DurationByName sums span durations by span name across the whole trace
// into sums, one pass for every name the caller asks about: sums[i] totals
// the spans named sums[i].Name, and its Spans count tells a name whose
// spans took no measurable time from one never recorded. Spans of other
// names are skipped, and the call allocates nothing. Concurrent spans (the
// compile pipeline's per-layer fan-out) sum their individual durations, so
// a phase total can legitimately exceed the trace's wall time — it is
// per-phase work accounting, not elapsed time.
func (t *Trace) DurationByName(sums []NameSum) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans.all() {
		for i := range sums {
			if sums[i].Name == s.name {
				sums[i].Dur += s.Duration()
				sums[i].Spans++
				break
			}
		}
	}
}

// ServerTiming renders phases plus a trailing total as a Server-Timing
// header value (RFC: durations in milliseconds): "decode;dur=0.21,
// handler;dur=3.90, total;dur=4.15". Phase names are sanitized to header
// token characters. The value is built in one byte slice, on the stack for
// a header of up to serverTimingStack bytes, so the string is the only
// allocation.
func ServerTiming(phases []Phase, total time.Duration) string {
	var stack [serverTimingStack]byte
	b := stack[:0]
	for _, p := range phases {
		b = appendToken(b, p.Name)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, ms(p.Dur), 'f', 2, 64)
		b = append(b, ", "...)
	}
	b = append(b, "total;dur="...)
	b = strconv.AppendFloat(b, ms(total), 'f', 2, 64)
	return string(b)
}

// serverTimingStack fits a compile's Server-Timing value (three phases and
// the total) with room to spare.
const serverTimingStack = 128

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// appendToken appends a phase name kept inside the Server-Timing token
// grammar, mapping any other rune to one '-'.
func appendToken(b []byte, s string) []byte {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b = append(b, byte(r))
		default:
			b = append(b, '-')
		}
	}
	return b
}
