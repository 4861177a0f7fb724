package obs

import (
	"fmt"
	"strings"
	"time"
)

// Node is one span of the rendered span tree: the JSON form the server
// attaches to ?trace=1 responses and stores as a cached plan's compile
// provenance. Times are microseconds; StartUs is the offset from the trace's
// start so trees are comparable across requests.
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
// order. Call it after the traced work has ended (see the package comment's
// lifecycle rules).
func (t *Trace) Tree() []*Node {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	nodes := make([]*Node, len(spans))
	var roots []*Node
	for i, s := range spans {
		n := &Node{
			Name:    s.name,
			StartUs: s.start.Sub(t.start).Microseconds(),
			DurUs:   s.Duration().Microseconds(),
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				if a.isNum {
					n.Attrs[a.key] = a.num
				} else {
					n.Attrs[a.key] = a.str
				}
			}
		}
		nodes[i] = n
		if s.parent >= 0 {
			p := nodes[s.parent]
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
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
	var out []Phase
	for _, s := range t.spans {
		if s.parent < 0 {
			out = append(out, Phase{Name: s.name, Dur: s.Duration()})
		}
	}
	return out
}

// DurationByName sums span durations by span name across the whole trace.
// Concurrent spans (the compile pipeline's per-layer fan-out) sum their
// individual durations, so a phase total can legitimately exceed the trace's
// wall time — it is per-phase work accounting, not elapsed time.
func (t *Trace) DurationByName() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.name] += s.Duration()
	}
	return out
}

// ServerTiming renders phases plus a trailing total as a Server-Timing
// header value (RFC: durations in milliseconds): "decode;dur=0.21,
// handler;dur=3.90, total;dur=4.15". Phase names are sanitized to header
// token characters.
func ServerTiming(phases []Phase, total time.Duration) string {
	var b strings.Builder
	for _, p := range phases {
		fmt.Fprintf(&b, "%s;dur=%.2f, ", token(p.Name), ms(p.Dur))
	}
	fmt.Fprintf(&b, "total;dur=%.2f", ms(total))
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// token keeps a phase name inside the Server-Timing token grammar, mapping
// anything else to '-'.
func token(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}
